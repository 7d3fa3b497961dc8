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
        "3fadd33636b0e93bba9e659a57fbaa6fdbb6a7e9005d19bd1cc4efb93df61592",
        "d19ab3a5ba9dbfa24fa6951d4aefa6a8b29b049e30754c59568e00e294b3796b"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=mean batch_size=3": (
        "269b72912af26a6fc7706d2cd675e4d119339d4773f0f2e2e1f5aa1c7451de94",
        "376dca1729dbd7d76ab36e3c6e3fde0299216c038ea4ac6f1c3e4330e2888b18"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=mean batch_size=8": (
        "48a973a1b26231563119191a8af2401f0d96624702c0679666e39b2954b32147",
        "d71e29f8af2a6c91d6b9cd88de94225667b9b441ffe8f44c24025494c631a688"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=sum batch_size=1": (
        "e9aa05654a5d344b1890f6a1d3225a4bdd34e67c6ade52ab0fc1f78d5d07dae1",
        "6d254ce66dbff62f8d680ad24374bb18e51dca477e80ec070b3565e0c8c5fcd9"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=sum batch_size=3": (
        "59d28439965f3ec5a7d07bce085a38c23c2dbeea78d81bc35c7d1f38b9a9c97f",
        "9ab14a9e4083d16a731a1baa409f890cbfe90fe77b99c678f130acb8124794cf"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=sum batch_size=8": (
        "6e1609ee23203390bae074868c2f86af6ca472c542aa31c2f520df12000cd98c",
        "62a607aaf6f3e4f69459b92ba2e364ff5a40aafe9a5521ab0d08140c930a1cd6"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=mean batch_size=1": (
        "7ab4cf9a6138d4ea56e25a949f27bb5f7ce850ece0c2363f4963a914adf8ed05",
        "966f8cba017b96550be656d751c4c363fcbd45e865391d7b0e7b2f57b1ff31a4"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=mean batch_size=3": (
        "b60279b02f03396b1a531d5b230fa782b6a2069d8cdd74775aab5676f0918912",
        "c6df233e64822dd50a0daf938a9d196a083751c95b8f05813568899861754785"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=mean batch_size=8": (
        "87d23e1df1ea1cddf47142e7e51fd61ef9afe2ba18562815cf0bdb93b159d17b",
        "5fbef0f6ff3470f5d6f187c4b3fb5aabfc0e104e971cb286bdfe49f182fffec5"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=sum batch_size=1": (
        "210772549b00c14ea49902d2e2b77c716ef210dd27367ed679ec6a881a9e9915",
        "0be772a97fe12ccae33e4c9bf74b2be37ec8b7010c90ed479efed90cb25de731"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=sum batch_size=3": (
        "91bd8e14eb883e0351118d8684cb0dc385487a359a6326f047b5f8d93d19497f",
        "26f77dece520b0364f2980e1db83dc54497c9598e04f01f800c2627278cf277b"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=sum batch_size=8": (
        "cefb173c7ad9876d1ff3eac27ba115f24553eb0ceb8e7c1959658787b4d46de6",
        "c651da897dded2d06b131534dbabf54c5aead859c0696dc79451e5526b2887cf"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=mean batch_size=1": (
        "49400209faf54faddc4443c4aabbbde80f0855cd7314bc2cf366923441b5ea69",
        "67dff7753e498c21e644ff75bc3ee5c68ae2721dbde750ac953a4a95a6356b0f"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=mean batch_size=3": (
        "3f3b84390c703b9f038fc5878ff877b64f39131f55ca822bd7e3d160dc3191ce",
        "656f9919a679f1386a13fbb5aad0b57c823eb08645556d94269dbbe83b8177f3"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=mean batch_size=8": (
        "b5a94143f347c2f97a8a6a5c398acee19e7e32e805c69b23962c0bb9f819c33b",
        "918d528484be7ce89e7f90c2145bb806f828d9650e02f8aded2f3868a96a184f"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=sum batch_size=1": (
        "a0e8bcc31f9ec764be6b9c3081a59dcacd0ec3fc2de3ea5dcfe2463c19bce76c",
        "52bee594f006274a976f405780b343d04bb7f78b63f734fb564e4389aacc9649"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=sum batch_size=3": (
        "51e83135cdb8692d203d8c165aeae863d655bf096062bae26ee432b01ba4acd1",
        "382b4722a2310e9b38c50f82aebaf89869293bac16b343f4c1124a03c9cf4e3b"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=sum batch_size=8": (
        "802147493f7df5672eaccd55f8e5f6b4cc072bba71e85cbe7ced81d656c2ee7f",
        "cb0ca49980fe206bf5b817397be3d700c0afb13362529259fa6707528e71ee96"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=mean batch_size=1": (
        "17ed80d0aabdcf979e1c6b6383d9bf125411524755b06ee8ea9514eb1bf100bb",
        "cf3474af63647c52fdaeb92d88365a071378273c83a2eeac5e5e71e14dcd5128"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=mean batch_size=3": (
        "4198bdb7d324d7e09637c51f91baba2bff002f8b9d7732e714cdf7c5fcb6ab84",
        "fc7637b7a839db428ed6ee3c32fc7e8662d393c32a0f70a141fa384468a1f0a8"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=mean batch_size=8": (
        "12c365a24cffac856200623ae3671ec50e1ed20af6da4c7086fbddd0fee65356",
        "158a4b603a2937d26c0d4de1ef79e66d584b7d1aed3505af22bba09e2b658665"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=sum batch_size=1": (
        "17db1679d7c4967a228aafa0e385eb9df2b368f1b5eed88285c3b07a00ac7916",
        "9710e2a5a38a6e2a28fd058f92bfc7378bfc2b1ccb99f7762ab3710cf7fe4746"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=sum batch_size=3": (
        "824027bf1ffa59abde35bd70b55bc95d6a35481a6e4660490571c12762d815c9",
        "6beeefcdf90be4efa8f3c8b905439ae732f7d38677d5af008eb58bcc0dfa7ee9"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=sum batch_size=8": (
        "e4428e351861bef316f06bd3170a1d1d9424d8d74d7df2f2bc138ba6928385c5",
        "0299ac6b8b5f2a390595bd62d952dc184bfb89aede9d6960d5f7ab33a42d3f1a"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=mean batch_size=1": (
        "1a3f11d02baa040ceb768d9264922acad685515362437191c4e7f361f0711684",
        "dd732d1919edabe872a186fe3851bb0f3e18a0b08b796fdecca718a3f65a6ebc"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=mean batch_size=3": (
        "2b4779f80ea3c207df74d694cbf189cdb40de450cddb5a972fd54c121ef12f93",
        "a25062999bd10ab91a99c3d87d9d2ef00490681ad66d0b5a6a08fee731dcd35e"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=mean batch_size=8": (
        "d3f6a6286afebe061e31319f4d80fb6d2c9fb037fef35631574cd1172b3559b6",
        "f84836202379858e0cde51f9a4da57b774840a6b10790068cf9bf5e242093a62"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=sum batch_size=1": (
        "fb9cb01a64a77e255adf37f7b78c7f5455cf9aae572c0f80bcb2387c265ddac8",
        "07256295201560989d1aab7d3cb46aee0ff74fc074e34c3ad7c3a7614941d9eb"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=sum batch_size=3": (
        "6af5df7dad8d3b3b0b326cf87753f51a5907e1226b1609bc800d921ee64cd99f",
        "db6f757fc45703b24fc8c7489908fd6a0ee7b5053782305ae177c55822ddf10a"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=sum batch_size=8": (
        "42c2cdaa845aded2d59372d86d490fdbbbe9565098f09ffe27fd175c3d9767f7",
        "476008793599c44d2f86e4881d5fd10c2ea4687fab05595b312fc5a230594ae7"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=mean batch_size=1": (
        "608e3f907d54a91089894e835bfa2b21ad4f2e25fc717a0ca44519ec315f15a4",
        "c9214fbf44edfadcb26fa154da80028996f227ed79c020f5c6347baec79f53c7"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=mean batch_size=3": (
        "216c994c1f955e3b6e3dc6ea62dc7fa893f961cb13cbd9ecfb5dc3a5fa248898",
        "90f8e061b76d8ad333e906a9abd79596bd35478a39ff8c58029d014b7884d632"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=mean batch_size=8": (
        "8f6b36df455967276d8a96bbb4c7a9b3e3a62f13ee46aef21681af2e206e1546",
        "521090536d9f93f8a347a98ebf69393876ef24b10d3496dee55de23a3a21851d"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=sum batch_size=1": (
        "85d47ce8fa9c46842c60c695ba492873321263698a2e2c4a8f1f80b59c86b49f",
        "699f0268e7e4c5057a11f94d5cf5f94739c72b7857a5742a46151ef2e5fe395a"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=sum batch_size=3": (
        "bce7187cde40ec0baa7f6cd86679b5cc509617db33e69c71d6e7ce727ba8444d",
        "0b2b78651c5aa851cb9cad3e508b593b843b7db269fe758655b0ae59635631d0"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=sum batch_size=8": (
        "0a6f2153045369d49b0f5ed93bfa6e35c79a41e4b35ed6da7c969aa365858d5f",
        "6776419098d0a0ba0a8b88a14289fa4d1185568a2ad2ed9f5ef2f0fa2cc26801"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=mean batch_size=1": (
        "c3acb757cd97f97aabde0a59a1610797dfe2720b53d1f169f5f7cc0fbcf16239",
        "aff668f35337e6d759d1a324b8354f7be9f33aac5bbaba77aa2a1663c36324d8"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=mean batch_size=3": (
        "46935919ee739cea981563ff650c53dd6a1110fbb8dcd18f70daf7887d2333fd",
        "b85d28cb696d232294235a7ab2626678e19f546b52868799dbb043103753cc03"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=mean batch_size=8": (
        "cd5f14a99fcf239a3c0c7accad7d7fb57424f23bc26f6447e1d740251ce49c50",
        "d4cd5568775c79ff37637c2e28755d9f417ac2d8674fbf31ebe0e3a76be9729c"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=sum batch_size=1": (
        "c3a04e3fc2a04433b359699b0bd9de2cbbf8aa456f209b329e5313a7ddedd94c",
        "47b21993fba09ad8849e12d624193d8e6f01b9656d4b45a5ecaaff54c0ad9018"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=sum batch_size=3": (
        "554ee22b46dd3af6d7e7c5e37cd1aabb54723378e2517d446a57850fb9f890d4",
        "4b384e0a33a288305c902631e6606faef37695728e7f107f1bf9f4637edb7704"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=sum batch_size=8": (
        "25f8150ebb1c99df37d44631b3fb1a5481c1e0f14879b08130f6fca98e3b954d",
        "b34ebed1a85ec9f27a5f367179afe1a32699b011234add61a3b55897a2c46436"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=mean batch_size=1": (
        "e09fa5b0a4580f5449eb4cb131db6e6402c2de4391fc4dc5267b136bd41a2fd4",
        "0d504d78a95591172288db1e31c697f58fab7102e147214d26ebd7c43d611e06"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=mean batch_size=3": (
        "c27362b1be284680934aa048330a883d6b24f59aef8a0743a4e5f16ca1008d49",
        "7510a9f3bf9cf3a45a820e56d19b9c333473e34233110d1e72434cd4f9245eab"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=mean batch_size=8": (
        "4bed16eba622b1a69362454211f9b52f8c84465a55e1bbaba61eae902c1e774f",
        "f806bf0f8edb7664d3ca3dbc72d0ae1f08d1846a725cf810c9bdd12a5d18eb91"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=sum batch_size=1": (
        "0dd6ac4e9b5be26f0e016d60180dcc68da325128e616ec7854d2eb407e55aa14",
        "8e9562579018a9c4989790fe31b0a24e49d2c9a33eea6635205902469b27344c"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=sum batch_size=3": (
        "cb3ead01fabd052a8ceccceeadd30005f119a8065c12bcfd316d127426fac029",
        "a0c22d9b8005e2999ab03e7b447ff5023c5eef1d251f477d6ee0015a6f49880a"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=sum batch_size=8": (
        "00cbdd43e9f606fbb2f09d3dfabb38d271235da2872265bcff88708e45000f76",
        "c86686b552fd59531da301b49938d6e31712074f096d315d261fcac96f565b21"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=mean batch_size=1": (
        "258d9396cc6f2b5d1dea17813a44a930cef6fd2d065af8e1ecd0f6b7d2283a65",
        "1ffb8eb88b27edf00d6cd0222c3454f3ebb0e9ad559a2a0f6198f0fcc12341cb"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=mean batch_size=3": (
        "533c0d9f118bd70535078f2361379ab69def885009b606d0f40213fac8d616f0",
        "9d5d64a9555dd22840368a3e939ddc66a4cd5a9af62f4795bd76000282157e52"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=mean batch_size=8": (
        "f84035b4b6ec61ed7ab3bee4e043713293fc1799c33e703f2359cc1b794b8ff7",
        "5abd2cbfecbeb26c628f6eccc1e84606aeaa4da3761f156a34ee592194e6cfb4"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=sum batch_size=1": (
        "acd217f57efcc31a66487e6ca0dfc310116cd6a6ebb51d5a81c684a2e1a60502",
        "eb9aac31f9e82bacf72295c76a880c878935b8d90f75b0f4d183c81a9cca7366"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=sum batch_size=3": (
        "4d4d0379d82142a75771a210a46a0a45fbcc85bccadc3ef4aa07236a09732245",
        "5d71976a893ced8f3746d4fadb076b2b10bfc55bc15291a67a0e29cdae211ae6"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=sum batch_size=8": (
        "b158b03c5905faec46d8249b82aea30cc5bac231c16509874ce5df33cfd67af6",
        "bbba33941a69b8961ca0c7c9858ec40480eaaf9e80433fa297f2fa1748413e6b"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=mean batch_size=1": (
        "1dbaef095f0500f56ff3647be76abd88f8eedebc8b396219e4f49cbbf7f2ac48",
        "eca112a60584ee28a7a99c3066fe066fc3849775c36dae42c483c1d6f2a1e45e"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=mean batch_size=3": (
        "5f6d13d0707950813c91696838a3b59db602673723610e6231b3709d5359cad3",
        "5e06aa3a397946cc4a9c7aaa31ae21dc236adc1328a1753ea90fbdc89cdc4360"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=mean batch_size=8": (
        "8dc2b54e94575cb5a8826ae4474b69bb6ee61feb71f58d665da26e34c2b0d2f9",
        "d1fbf95b9be2370684c2cb8d39ced0bdbacf790f7c9d1bcbce6d05e5bfc43326"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=sum batch_size=1": (
        "40a34e836c9b2fae3317689243376e10f8d056d7ba036d70217c43fedb97123f",
        "5513862936ab46785849576d3d973a43ced3e0943bbbc5d141c45180e53477a3"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=sum batch_size=3": (
        "606bd406bd2c63943c17477ca3021c4b8efdbae9ccc52a7f51c48e14c8f01d7b",
        "7231aba53352133e2cacdeae0484074d9d817ae2b262d820d34d7198c0f0c9c8"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=sum batch_size=8": (
        "ad9d232cf9dc1e64e51f60e6999fafc8ba28f890506f13e2f890b6f84d658a99",
        "8fa490d751600f9874b45732a9ebd49134d549a73f490a3f4e38bcefae71fce1"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=mean batch_size=1": (
        "941c275a60a6233751df98062ff5864afaee83de96e2d99aac89d97c1e7de996",
        "c43f1b9236d78f1deadb598c16b2c3b2c8a1526a637cdf39cd9bfadae8191fca"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=mean batch_size=3": (
        "7b9fe0c6fcaec2f9b72ba80382321e019e5d7337f992bb5a247d3b5f36f32f5d",
        "3c36b19dd2fb59e5699626c272d10c1f732d7047d6bae58da55a401fe8b46a26"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=mean batch_size=8": (
        "0d265bb312dee58e4845fe732eb3659ece56acab4294989fcb1b2fd50b2b7c24",
        "a99168345195dc3ea7ed130129f3c663d73f16f855a8923b9c8c7e75916be9a2"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=sum batch_size=1": (
        "5efff372a5d3fef7de21352969bca85ece0ab6fbe9b12b8b3bd4c8fe2d3cf41e",
        "95a0301d49ab1feebf2a7accf4d0189c432ac97303132a738aa9ad6e7f04ff82"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=sum batch_size=3": (
        "5fb9889dee584accce2fd2d2b468b27d99fd9e31557b2aba906cd2e62d87459b",
        "c9d9c3487b08ea2bb4ec386b17e72d7d0bedb37a9a22c3fccbe3e19d3a481f50"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=sum batch_size=8": (
        "6779e2d30efe4d5613e257c1babc17a4f7679e793ab74568f77e678e4a0f7660",
        "a1d4e5561022f935d02cc22f636c0fd475f29427ef5576147a216eb1d3cb345a"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=mean batch_size=1": (
        "d564c9cd507f774e4c9cb8c7ba8cab35e9777b073a267bd70339d220ddec4d52",
        "bbd7ef24646e4dbf3249c6f68cae8ff78febcd2cb41e5fbade05e9d16f41364e"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=mean batch_size=3": (
        "86a7950bfaf952055fb22f67816c1bb97afa4906814962de2f7ae647deaabdac",
        "dcacfe7314aa60aa8c15804f84d6eb24998140abaea8461d77b7e547b2b2d198"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=mean batch_size=8": (
        "c94fa7fae83e85ffa9f873d28c3e5573877945cadbe67e55b0329137580a2b05",
        "8f80974a474c99a64bbea21c93ebd584d36753fae0264d31985c037511dd5c1e"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=sum batch_size=1": (
        "bcad46fb58f9b307feecbc1aeb0c22a72abc9ea56042b2523ab9c7ba500ec6ce",
        "47cbe6d5148d623b255cfff06e8e8805584b459747badd6e7d79c9101af5ea61"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=sum batch_size=3": (
        "663e2950ad769053cbdd231c689fc6b5a60207ba57c207c7a6e69bfe71c37654",
        "4b116dfa4034329d17f7de95a35d4ba2b2c8f0cd60f3173b85ff97c4546530b1"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=sum batch_size=8": (
        "c2d638529abc314582bd974e46fb87db75fee6afabbaf30c0906c14318267f61",
        "38ec8b36a825ca591f502f1c001ab89665809a5c3a42d5a890fde740238e4a0d"),
    "enc_depth=3": (
        "8051a64e5e96ba47d8a7e5bab63b8e9e8da0526e251dfe72165ba9e9798d486d",
        "5b5cc112e85488eacef92e2e79788853e2ef8dd9988ba6334f69eefc9927cd4c"),
    "in_channels=1": (
        "9711dc77adefb2ae3fc321cd1d5f3606e23c51a28f5e11da81325aaa8a8e94f0",
        "e3ed7324eb4b9d833d4d8110c7f0f9e8485750ee0731e93332e3813e763e1290"),
    "teacher=file": (
        "3ed47a1ffbbcc89021dd1044082634fb4b159c5454db84fa2ffd17ed498a225a",
        "5b570cfdd48a6efc12f0dd21cd4d6d1af4cfa903c2b810e61b668b0e9f73c8a2"),
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
