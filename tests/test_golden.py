"""The golden grid: the bytes every step configuration writes.

scripts/golden.py trains 75 short runs (see its docstring) and hashes each
run's metrics.csv and final checkpoint. A refactor keeps every entry; a
change that moves one, such as a new float32 summation order, prints the
new table with `python3 scripts/golden.py`, pastes it below, and lists each
moved entry and why in CHANGES.md.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"

GOLDEN = {
    "use_cls=True multi_block=off lam=0.0 channel_reduce=mean batch_size=1": (
        "01e4a03519dd58e35c3193666ac1bc3fdcb1a3ed09d320d93dd268fe4ee676dc",
        "7d6caf5cffa0f917ad5eaef4765b8820d07688793233d3042a18b5f85d1fd4de"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=mean batch_size=3": (
        "44a905a9a8e2035fad589dab1684578b54e1e5804f04b165f62a3930c95a8cc8",
        "ece276b16ebb7104f5413deab3c72cee8a1e5a018d99abb8b8b735ae08a23574"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=mean batch_size=8": (
        "48a973a1b26231563119191a8af2401f0d96624702c0679666e39b2954b32147",
        "20c9ac26cfd4a93fa6518f7e55bc840f01ccfe394d436f6160d8822085c6ad9c"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=sum batch_size=1": (
        "a39ef131154f42abfc3dce93bc70d7cc3f0a5b190cab6aa0cdbec717bfacd5e8",
        "8bcdff4b9cbc4e823fc300e54cf32d7508f0922f1e66e40c652f0831697e11f5"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=sum batch_size=3": (
        "908910cb063abc49d6a34d811a5e3ac72f20c7afddb232643b300b631e0577aa",
        "d34e168363e1999217139acea379a2742c469e458698f836f886c8b365b82e2f"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=sum batch_size=8": (
        "6e1609ee23203390bae074868c2f86af6ca472c542aa31c2f520df12000cd98c",
        "b1c7d38d35d660e7e2a668305cc81b5bb1ad739cdd38e8b6edab536361b15de8"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=mean batch_size=1": (
        "8fb20cd8122447af1592c2ff980df910412594a9cdf61ad2b09caa563dfaaf76",
        "b0ecb762ae106cdbef56b7808351f551ae11aafd8dc6e7bdea7f6a0ed3a23588"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=mean batch_size=3": (
        "9fb9951b8abf97164df7f22fdbc9c6e782d88c3b82f91040cb49425a7fb892e4",
        "f73f1d549a6ec317eff58076d84bb56ac67f0209c384b1c78ee34c45163b81a5"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=mean batch_size=8": (
        "87d23e1df1ea1cddf47142e7e51fd61ef9afe2ba18562815cf0bdb93b159d17b",
        "f6b1cc112638dae343710151e3f966af50aad284dca6364b33020c651f6fb731"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=sum batch_size=1": (
        "c17eff83e06298d4320a05f31a19af18e5953eaae3001a669ea058f27a22063d",
        "b2b934379c51d01b7ac5d386f180d7483daccf8bef9201823343c629e051d471"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=sum batch_size=3": (
        "63f93d2b4a03175a34f1d0a5784204a25aea60a1131067b38f8846bd483cc5e8",
        "b6b1f2ade1dae0ab0e8c244b526dc2d2216eaede42919c75a9a58b0df8448f4d"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=sum batch_size=8": (
        "cefb173c7ad9876d1ff3eac27ba115f24553eb0ceb8e7c1959658787b4d46de6",
        "d17b483de0828f54ba4b04e5fb1d6576279558c539bd94e7a0d3cae82f222f7e"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=mean batch_size=1": (
        "4af96c5716a8fd4a9a9933a6bf42f967a041a2d1bf402b542a7765c85bfbb215",
        "d25a8f77068b1a2cb0ef5010e794b0a57ab029bb94e71bb10b88ce7baaaf811b"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=mean batch_size=3": (
        "f909a3e9f0cf8d62d17f61af285d8d99fcdb9cf7ccac3cbf630c0f573c03ee2c",
        "7dc5e4b90ff49e9f5ff925fabfd55de40d6a1db3a9fd9a4aeaa3f0404865ef91"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=mean batch_size=8": (
        "b5a94143f347c2f97a8a6a5c398acee19e7e32e805c69b23962c0bb9f819c33b",
        "1d34c711bf0574df44206ff100ab1c903eedb79c42a2c2f1b2da4ff46fd28e04"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=sum batch_size=1": (
        "c4b3487934af48f93aaa832ab56f3ddf7da7a68bd6b702a7a957243d920ab723",
        "d304e524eae39a0262ee0ba35a4d86d97602ea05616990e149708a4085a0cac1"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=sum batch_size=3": (
        "f238dc2d760d26b957fad473b73efdffef04a2705fed6ec6997c787c01906be8",
        "5f7b45652d0ecd9d177f9f139e30fab7f4ee31e59fb2e4ccb13d65c30c269418"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=sum batch_size=8": (
        "802147493f7df5672eaccd55f8e5f6b4cc072bba71e85cbe7ced81d656c2ee7f",
        "73867afef92dabcf981e186c067ab08c7969d82fb8748cc57d7f2877064726f0"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=mean batch_size=1": (
        "b2270c5ff3f4f1938f62a6204109da51111c0bac479994dcb524b91ff1840bf9",
        "ee7fd0bedc8e27f5890b7f8a93d92e5dc8ec9433b19a0698a80fd570f7b0cff2"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=mean batch_size=3": (
        "cfcc476cc91bedf815d0060790bd022a19d193e4f0bf4eefb9714bd17e0f655e",
        "5ce4d91fb19c4f018614324ce55d5f41df03043397c6f790f546bbd3407bd648"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=mean batch_size=8": (
        "12c365a24cffac856200623ae3671ec50e1ed20af6da4c7086fbddd0fee65356",
        "b5988c384ce22c18dbaea3d7301a293b4f61494bced889e0f628462bd93ba2fc"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=sum batch_size=1": (
        "e80d041fec25a320c69b5ea56c7f175c0ca0e8aa20d11ecdf7b267b19ee0d3e8",
        "8d43ac3f560b72560a466b434306a0064b0aedb24b600da031fc7a92fd52c648"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=sum batch_size=3": (
        "51114e8ab3d856db392d1fe5e7937a5e6cfd68400791ec8cfd69c8abab7c914b",
        "74ce191fedcd221616b43feae2c281bd217447252752400d80ddb5235e0da3a1"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=sum batch_size=8": (
        "e4428e351861bef316f06bd3170a1d1d9424d8d74d7df2f2bc138ba6928385c5",
        "d36d42f5f24dfa1c33337c9975656de5f3b6e25b7c7dfc09a7cee15a1ae3cb2f"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=mean batch_size=1": (
        "a4024ee4eb19dbbc8c1f037c501ce0fdc77a8236614334a7d07d3bc3788d24ce",
        "4002f4e953ea4e937fef126236d6e538762501acd0cda7e743389796e466f8e1"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=mean batch_size=3": (
        "475a4f78cc3d95d9b0f50b3f671d5580364c6c9e4d61bb7e444b17655d83da36",
        "1873f779d0e6cd28501fb3e9715c0a6c68731542ea09bdc7023562ae31fc9b60"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=mean batch_size=8": (
        "d3f6a6286afebe061e31319f4d80fb6d2c9fb037fef35631574cd1172b3559b6",
        "81a08c5d26aada9345901913de6c5236fd4a51d8953cd8394d42381752f90ff4"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=sum batch_size=1": (
        "7bfc355ba6af4e9c0cb75564f59e8d261c0ffd4d82344cfca5ebca88e86f1c3c",
        "d1a6c1cf698823f68e22e0b1e5e8a182d551d3fcf08ec5cf65601e4b1034f68b"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=sum batch_size=3": (
        "52bf3e47d5fb03015d3a5c66509e2fbd7e7ed92f5f5be538f5b02b01d568b431",
        "4aac739ea392700ad7455f95af2f43e75a9ea594ef926eb61eb566db80e86c1b"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=sum batch_size=8": (
        "42c2cdaa845aded2d59372d86d490fdbbbe9565098f09ffe27fd175c3d9767f7",
        "e346d2f94eaaaca7b2643c6a9effa4ca255ee2ce6fb55bad8f24784633c872ff"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=mean batch_size=1": (
        "980e9beb0d407fa5d9a2b8123d2a404f40fb86d79b7c1b14378bfa96c83c785d",
        "864e5835c7cfd39383d70ae3c1edb1095a347803e6cc780dff44c549280bf506"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=mean batch_size=3": (
        "4309d4dbdc8fd408079c8adbc9519a46b6b12a28f634e5322ec989d48af903e2",
        "a79cba25e5a28c5c0cc18e0c0e67b5ad56668eeef7a3d77fcbab991d66c6000c"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=mean batch_size=8": (
        "8f6b36df455967276d8a96bbb4c7a9b3e3a62f13ee46aef21681af2e206e1546",
        "313a86d23f68d68a64b98c4641c6a3add2fa3afe7ef06f2e911110e65801d831"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=sum batch_size=1": (
        "f62cf859ec6aeb6d5e902b691dfbf0836106b5327489aee0bbc67dbee0d26a06",
        "f115f0a988a3d6b6979e8e5e005d7972b96266244f2cbb49531e63416e8007ba"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=sum batch_size=3": (
        "651a55c0cebbd323585ecdd7ef33abdb85ea866a27722269167d55a876c46d89",
        "52c13a5b59f605e2f711568a23de2cb0f696dbaad510ddf3c170b7873830410b"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=sum batch_size=8": (
        "0a6f2153045369d49b0f5ed93bfa6e35c79a41e4b35ed6da7c969aa365858d5f",
        "4a7ac48d3d8b7e76999ee3dbbd8a89659fbbd9410019ed9c2c7a1285e0408921"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=mean batch_size=1": (
        "241f4ec6ff60284ebd994f10196b5fd847e49fa299a74156c91f94c199509d9f",
        "bbcec22366970cb4fc0a0e397d4e0c1e2e1c609d6a41cb1e5d87771952ace23a"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=mean batch_size=3": (
        "b8daae77f57d62ae2f90058706fc45717560186e0a6b5048ee6978939f2b61fe",
        "c0a1c22b814af86ec791148127da8b4ccadd2bafb8bc2da6692d8b3a2bf06b42"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=mean batch_size=8": (
        "cd5f14a99fcf239a3c0c7accad7d7fb57424f23bc26f6447e1d740251ce49c50",
        "f19ebb7052924a4c817d1fb7e3351fdd8824a95312070735e276b027a77fe63d"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=sum batch_size=1": (
        "3ed4d6162289d79202be9b1a33b456d4d7a93b626383704b8fe7d85c8edf8837",
        "e26d7792ce989ca421bbdf8a1e35f5d7d7e3f5bf4714d9209cf9820ee8a085aa"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=sum batch_size=3": (
        "8c2dc99061a09f5b131f7554c4f1fa9f7b9e65f4510631ae5fac51f1b41bdf75",
        "eee26d179183b06011e29aaa3b739cc5ef17a31f9da5950f4d576ac18b905140"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=sum batch_size=8": (
        "25f8150ebb1c99df37d44631b3fb1a5481c1e0f14879b08130f6fca98e3b954d",
        "2a21f793f4ea0dd8ee7a032fa17c0ee7d95ae88b77b9f01829cd97d6be1b2c20"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=mean batch_size=1": (
        "9b01fb75a9f4079ce2cac9b044f3b3feac1012481046c09ad39c3d687a1f2992",
        "d63c5ff21f46ad3740cd3c29487ff9493f8025be18734b86eec24074292fc9c7"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=mean batch_size=3": (
        "c8085ce7163bb9668ce83b8771823c508a9505865a0fe7a2fc3265bd219bdb9e",
        "fc39595b1a3aa958fde566f014c0d767e437cf27f969c1352150b5afc800a97c"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=mean batch_size=8": (
        "4bed16eba622b1a69362454211f9b52f8c84465a55e1bbaba61eae902c1e774f",
        "863f477ff53690869b25a5f4b3fd025713a6d8f7ab266ef11af71d6c7f0682a6"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=sum batch_size=1": (
        "a5baa5c974ca1a5fcbd7a129f3e5ab4ab764f1ebec8996a2f1d4d9c913b7d2eb",
        "db10ab43d2173a72d36a837fff702a04a9a4c72948910db900cc4f4062c23c9e"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=sum batch_size=3": (
        "2a9c8c4f43e1a8cfeb70a14fb4a5ed4bdabb00ae03bc3ad84923069a6c6e0a04",
        "5d971cd050dba1e132c70cfb5b4c38cd41bdb48a5f71ac4e986e85956af309a9"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=sum batch_size=8": (
        "00cbdd43e9f606fbb2f09d3dfabb38d271235da2872265bcff88708e45000f76",
        "87ca74de76d7d7ca25f54641d4e93301806e062ffd1b25bb953850c4257ec2fa"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=mean batch_size=1": (
        "0fd108b60262136cc5d2c663ca153b5769236b6c141121b895f11b3eff1d3c21",
        "6dbeb5c41cfb8dc590050ae19a69496aee1ef32899c4c1006a38b040d5061747"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=mean batch_size=3": (
        "ad4f4bbd5fb00d539fc3d48d57040dbdcff4fc2577507db006e1405ab72f8bcf",
        "bb381e8497bd852b5fadfea28c97188ff9e10792f0bd6e94c8c410aaf60140d7"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=mean batch_size=8": (
        "f84035b4b6ec61ed7ab3bee4e043713293fc1799c33e703f2359cc1b794b8ff7",
        "f88b16105ed43ec0e02ca85067ab7c853710b90031121bda6d13b871d64ee07a"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=sum batch_size=1": (
        "d26de0f0b56e79b21b5aa9af8c219a7d62012950224c72d0fb2af338efb53ea2",
        "eff56e15a397cfde95d168562a46a8388229dec5ba54c4eb6230b84b3b0f69db"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=sum batch_size=3": (
        "78e7d1edaaa49b21e9d1d86bf58ebe2e20325f8d82e0b89f2692e47b3e17e368",
        "2e7684b8a4ee91a6fdf4b0cd00443b2645eca89d89760b329a7559eeebb5dfe2"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=sum batch_size=8": (
        "b158b03c5905faec46d8249b82aea30cc5bac231c16509874ce5df33cfd67af6",
        "492140170e42941be353bee3ffeb87aca8ddf74b0731256a7fd717eb9888be00"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=mean batch_size=1": (
        "f1243a3e46e687f880981d4fe37a0283f9351451a9f8639d54434834cb27c7ef",
        "ea5d68c5d24466e86a0a03a9b6e4800d85da6660bb4375fa702fd210c024aebd"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=mean batch_size=3": (
        "c259bc41236c121f0bde855d6dfcf8c8e7176575cb170ed7c9e065e6100692d1",
        "50b191ad44b1fe6b60b21532be232d8089a8c07bd648a4656b76205b54894224"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=mean batch_size=8": (
        "8dc2b54e94575cb5a8826ae4474b69bb6ee61feb71f58d665da26e34c2b0d2f9",
        "ce63465ee577dea01a23402873ac4c5eb359957f7eeff6755cf2799b83e3c1ba"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=sum batch_size=1": (
        "f5c8c6d93c53c3db69eb213e48769d4043d541ebbadab16d499b830d341163f7",
        "60dfaba722f99c15f778f55f645147b814fa8d673357c64da4e3959003fe8407"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=sum batch_size=3": (
        "c33b3f9faf4c99721a920d126dc95cdcc2dd5551b290bf82eb9c2be4e0afdf38",
        "8e9b17ad2975bf1653276776d9c574a1445f64cf0348fb5880d07b0eb22bd1ea"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=sum batch_size=8": (
        "ad9d232cf9dc1e64e51f60e6999fafc8ba28f890506f13e2f890b6f84d658a99",
        "0df84455d2c2bc2c55352d15028f11ce796b7c25190cc6743464d3eb19346e8b"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=mean batch_size=1": (
        "93a3d5b740175ce917cdc721acf5b78b60290900ac5cf8566026d496bfdfaff5",
        "f8978b8a0b7a0b0f7594452a9a2138ad6b5179ca3caafbd361a3c4f8f7e7e925"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=mean batch_size=3": (
        "510c6f7f385871ff4107ed54f64bf44cb6a625e9a58ed8867a5d11e02910de5f",
        "3ce72643a63c7b66174020fec84ae0fb3964dbde4d33ac9087e6bedc84029a29"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=mean batch_size=8": (
        "0d265bb312dee58e4845fe732eb3659ece56acab4294989fcb1b2fd50b2b7c24",
        "587cf5de34926ac85f6986ba3090deb67beba64359cecf15aaea8ae58be8b49d"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=sum batch_size=1": (
        "b491ecc52922f43d4523c273e5c8e89401419a8a5fe3a06d39369ddcb31d089e",
        "52244155fbc238217e1eb2ed59819e66dc574c57d8b2dd2ad56aefdcca00ca23"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=sum batch_size=3": (
        "af5986050c7ac038896a18d4aadfa4758c1bcaed1021997f8b1420a2307e27f2",
        "989f040c111e646111d0e613e5c9619f59856d03e4fd33adeb3b218df5a7f353"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=sum batch_size=8": (
        "6779e2d30efe4d5613e257c1babc17a4f7679e793ab74568f77e678e4a0f7660",
        "a19f5340d9977b7445f35218aab4dbc3b9ee95b7f37c90b470a6362cb601db9f"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=mean batch_size=1": (
        "6b9d4f237c336017f333f2f138da52b42a5bd700aaef6bf1ec3413afd80b798e",
        "e12ee59bf65c8dedf7a8efdb1a9865eb0cee83a9459b6f66f1cb579b52064b7b"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=mean batch_size=3": (
        "79acb7e669c9e371a2fd060c486b5783e1ef5f16fb37b7e83400e73de4de5fd4",
        "13984fe47f982f56b739dcb9f3ba0058e01f792c947a13ebb043b0f48ec07d2b"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=mean batch_size=8": (
        "c94fa7fae83e85ffa9f873d28c3e5573877945cadbe67e55b0329137580a2b05",
        "9682537994366eff5cfd9bc87e3fb6a75ed87f25e7661337ecedaaf30702db6b"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=sum batch_size=1": (
        "7e8729644b3960d96b854e06f479269f114aa1f6c57a3bd43e5c0aab2b4adcdd",
        "8b30313c8036076c2d6a3e867b870a92a6ce0048e79208dfd74f1647b49d8748"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=sum batch_size=3": (
        "d8b3d3e46f837cd0f26c307524b3156a7dd8096d6aa5e7d02cccd5d74bb1cb55",
        "3b5876091c85b50d4bedb1d450d9f4f097641fb32a354b6f6c3b2338ba39e94a"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=sum batch_size=8": (
        "c2d638529abc314582bd974e46fb87db75fee6afabbaf30c0906c14318267f61",
        "04ac02af9ab0ed53fe172be2802b8fc1f56e578c8d3d025ce75f46c77733ad32"),
    "enc_depth=3": (
        "e45d4c3530827ffd3d333b3476c26e30e5ed8247746475b68cf4d41be202cf00",
        "6433d953dd803aabbf3544cfbb074d261a66bd778c7815a983c3850f199fb533"),
    "in_channels=1": (
        "91ad21e2ea4a6fe776c085bee8bc67f456355ad83962e58103cee6fd6f14da49",
        "6d94cdbb191ea59126d67559ae0eb3096a294a7cea9524a6b1c6665d475b1741"),
    "teacher=file": (
        "1de64aea23c37d67f2b39873c3875b194a206ae947fdefcd60eac73ed470ecfd",
        "95cbff40443390f1c57473dede24114c060de731958ffda7b25bc97ab93e3d4b"),
}


def _golden_script():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_grid_entry_writes_its_pinned_bytes(tmp_path):
    got = _golden_script().digests(tmp_path)
    assert list(got) == list(GOLDEN)
    moved = [label for label, digests in got.items() if digests != GOLDEN[label]]
    assert not moved, f"{len(moved)} golden entries moved: {moved}"
