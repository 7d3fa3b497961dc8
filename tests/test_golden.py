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
        "111e55e1222772a1c1808cca4999989b4d2738eb90c12de99ffc0397b735997a"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=mean batch_size=3": (
        "269b72912af26a6fc7706d2cd675e4d119339d4773f0f2e2e1f5aa1c7451de94",
        "18d39bcc2a91477f3073272da9fa1a20d8677a72d19f20c1c05aadff07d483ca"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=mean batch_size=8": (
        "48a973a1b26231563119191a8af2401f0d96624702c0679666e39b2954b32147",
        "20c9ac26cfd4a93fa6518f7e55bc840f01ccfe394d436f6160d8822085c6ad9c"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=sum batch_size=1": (
        "e9aa05654a5d344b1890f6a1d3225a4bdd34e67c6ade52ab0fc1f78d5d07dae1",
        "31c13c938f9a3960060f515e0657a34eec179f004806606650036235373341e1"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=sum batch_size=3": (
        "59d28439965f3ec5a7d07bce085a38c23c2dbeea78d81bc35c7d1f38b9a9c97f",
        "90b40946eee3af586c5635226fec4138c766b70b42b7a2e6d986dfdcfab67c07"),
    "use_cls=True multi_block=off lam=0.0 channel_reduce=sum batch_size=8": (
        "6e1609ee23203390bae074868c2f86af6ca472c542aa31c2f520df12000cd98c",
        "b1c7d38d35d660e7e2a668305cc81b5bb1ad739cdd38e8b6edab536361b15de8"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=mean batch_size=1": (
        "7ab4cf9a6138d4ea56e25a949f27bb5f7ce850ece0c2363f4963a914adf8ed05",
        "6dd89de95a0c80f135fb4d1cc6e1f23e053b8d8c2b45dc9a92c95002c81914be"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=mean batch_size=3": (
        "b60279b02f03396b1a531d5b230fa782b6a2069d8cdd74775aab5676f0918912",
        "8797f73f38fa2ee5a5824608a2922e998afb8e9ab2a0cac1bd1f357c303b7d1d"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=mean batch_size=8": (
        "87d23e1df1ea1cddf47142e7e51fd61ef9afe2ba18562815cf0bdb93b159d17b",
        "f6b1cc112638dae343710151e3f966af50aad284dca6364b33020c651f6fb731"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=sum batch_size=1": (
        "210772549b00c14ea49902d2e2b77c716ef210dd27367ed679ec6a881a9e9915",
        "a261a430ec2bcd779beeb4b7591df02b30c8fd8748e1f452a5a5fcea237b84e0"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=sum batch_size=3": (
        "91bd8e14eb883e0351118d8684cb0dc385487a359a6326f047b5f8d93d19497f",
        "117dbe9fc5d7cd5a0ef631593abd60b827f65bbb6a6d22112c254d8c26ff9211"),
    "use_cls=True multi_block=off lam=0.5 channel_reduce=sum batch_size=8": (
        "cefb173c7ad9876d1ff3eac27ba115f24553eb0ceb8e7c1959658787b4d46de6",
        "d17b483de0828f54ba4b04e5fb1d6576279558c539bd94e7a0d3cae82f222f7e"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=mean batch_size=1": (
        "49400209faf54faddc4443c4aabbbde80f0855cd7314bc2cf366923441b5ea69",
        "8313e41a2c14143feb19b7ee09cdc939d56b8455ff463e34756f6efb667d0186"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=mean batch_size=3": (
        "3f3b84390c703b9f038fc5878ff877b64f39131f55ca822bd7e3d160dc3191ce",
        "9833413c0759869b422365a4e3191f2f97c5384675d89e30685c6e5b7f154107"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=mean batch_size=8": (
        "b5a94143f347c2f97a8a6a5c398acee19e7e32e805c69b23962c0bb9f819c33b",
        "1d34c711bf0574df44206ff100ab1c903eedb79c42a2c2f1b2da4ff46fd28e04"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=sum batch_size=1": (
        "a0e8bcc31f9ec764be6b9c3081a59dcacd0ec3fc2de3ea5dcfe2463c19bce76c",
        "717a81952607bec3cac2ed3ac8e2e561875d3bb0cf18e1552ecfca116a1eb5e8"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=sum batch_size=3": (
        "51e83135cdb8692d203d8c165aeae863d655bf096062bae26ee432b01ba4acd1",
        "f8ef41b609a9bb1a8e05bd751dce5ac24f26d6749e94b2ae7334ee465f478135"),
    "use_cls=True multi_block=mean lam=0.0 channel_reduce=sum batch_size=8": (
        "802147493f7df5672eaccd55f8e5f6b4cc072bba71e85cbe7ced81d656c2ee7f",
        "73867afef92dabcf981e186c067ab08c7969d82fb8748cc57d7f2877064726f0"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=mean batch_size=1": (
        "17ed80d0aabdcf979e1c6b6383d9bf125411524755b06ee8ea9514eb1bf100bb",
        "a01efc1c0afa37ffcd06a4ed35841295329ca585e348f8cdc7a6d135330dd2b5"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=mean batch_size=3": (
        "4198bdb7d324d7e09637c51f91baba2bff002f8b9d7732e714cdf7c5fcb6ab84",
        "695590c818b3bfff3b74692d783b9f21c560e086ca2d2b7ea18cba0ed4fffbe2"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=mean batch_size=8": (
        "12c365a24cffac856200623ae3671ec50e1ed20af6da4c7086fbddd0fee65356",
        "b5988c384ce22c18dbaea3d7301a293b4f61494bced889e0f628462bd93ba2fc"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=sum batch_size=1": (
        "17db1679d7c4967a228aafa0e385eb9df2b368f1b5eed88285c3b07a00ac7916",
        "ec49a524d785f9fffcb1cf6ed30ca215fd0dd249fdb50a413f8d9f9c645e8db0"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=sum batch_size=3": (
        "824027bf1ffa59abde35bd70b55bc95d6a35481a6e4660490571c12762d815c9",
        "f53422811193682785186f034cef09a06081b2e9e97f2488261711eefe6dc0dc"),
    "use_cls=True multi_block=mean lam=0.5 channel_reduce=sum batch_size=8": (
        "e4428e351861bef316f06bd3170a1d1d9424d8d74d7df2f2bc138ba6928385c5",
        "d36d42f5f24dfa1c33337c9975656de5f3b6e25b7c7dfc09a7cee15a1ae3cb2f"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=mean batch_size=1": (
        "1a3f11d02baa040ceb768d9264922acad685515362437191c4e7f361f0711684",
        "892f7426ace180601340fcdf97784d780a2bfd7ed5054c447668bbe9115f7a4d"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=mean batch_size=3": (
        "2b4779f80ea3c207df74d694cbf189cdb40de450cddb5a972fd54c121ef12f93",
        "cbd3f7fafb47dc8cf9fb20aed818fa34f514725d56b09559bf6ded51bfbab7cd"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=mean batch_size=8": (
        "d3f6a6286afebe061e31319f4d80fb6d2c9fb037fef35631574cd1172b3559b6",
        "81a08c5d26aada9345901913de6c5236fd4a51d8953cd8394d42381752f90ff4"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=sum batch_size=1": (
        "fb9cb01a64a77e255adf37f7b78c7f5455cf9aae572c0f80bcb2387c265ddac8",
        "548855b3e98fb8ae7ed39d9088584cbe86dbf845f4cadbd99cdf378a2989cbdd"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=sum batch_size=3": (
        "6af5df7dad8d3b3b0b326cf87753f51a5907e1226b1609bc800d921ee64cd99f",
        "d59b47d9ecbea03e9c2db7863aa3568c1ee66e7be7e43057bb38fb16a5cc26dc"),
    "use_cls=True multi_block=sum lam=0.0 channel_reduce=sum batch_size=8": (
        "42c2cdaa845aded2d59372d86d490fdbbbe9565098f09ffe27fd175c3d9767f7",
        "e346d2f94eaaaca7b2643c6a9effa4ca255ee2ce6fb55bad8f24784633c872ff"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=mean batch_size=1": (
        "608e3f907d54a91089894e835bfa2b21ad4f2e25fc717a0ca44519ec315f15a4",
        "ec484de82ac9dc4baf29d11661f12f25650786a84f4cc650064dbbc798d1afea"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=mean batch_size=3": (
        "216c994c1f955e3b6e3dc6ea62dc7fa893f961cb13cbd9ecfb5dc3a5fa248898",
        "4a1610ba507a25510694587cb3080aeeb7705cf7b969aacd6e2313d4e52a726b"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=mean batch_size=8": (
        "8f6b36df455967276d8a96bbb4c7a9b3e3a62f13ee46aef21681af2e206e1546",
        "313a86d23f68d68a64b98c4641c6a3add2fa3afe7ef06f2e911110e65801d831"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=sum batch_size=1": (
        "85d47ce8fa9c46842c60c695ba492873321263698a2e2c4a8f1f80b59c86b49f",
        "a58f6f759aa14d3f7b6b088c2a9047cf17a964cc2a663ebbe3562bc291b94381"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=sum batch_size=3": (
        "bce7187cde40ec0baa7f6cd86679b5cc509617db33e69c71d6e7ce727ba8444d",
        "a14c1ef848c4ff5aacdad99d87898b1073e5507bffe816a8a7b64898fda80616"),
    "use_cls=True multi_block=sum lam=0.5 channel_reduce=sum batch_size=8": (
        "0a6f2153045369d49b0f5ed93bfa6e35c79a41e4b35ed6da7c969aa365858d5f",
        "4a7ac48d3d8b7e76999ee3dbbd8a89659fbbd9410019ed9c2c7a1285e0408921"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=mean batch_size=1": (
        "c3acb757cd97f97aabde0a59a1610797dfe2720b53d1f169f5f7cc0fbcf16239",
        "8fb00b70e6f0df6f806d3214b041d7d258c27542a2f50dec06027792367e5cd5"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=mean batch_size=3": (
        "46935919ee739cea981563ff650c53dd6a1110fbb8dcd18f70daf7887d2333fd",
        "6ab2d7011139b226faac847f16619ae548b91df239512fe76734acc66496d70d"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=mean batch_size=8": (
        "cd5f14a99fcf239a3c0c7accad7d7fb57424f23bc26f6447e1d740251ce49c50",
        "f19ebb7052924a4c817d1fb7e3351fdd8824a95312070735e276b027a77fe63d"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=sum batch_size=1": (
        "c3a04e3fc2a04433b359699b0bd9de2cbbf8aa456f209b329e5313a7ddedd94c",
        "e4467c575a69b2732108bc84c0804e7dd501f26d2db08e1de26c92064b354b98"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=sum batch_size=3": (
        "554ee22b46dd3af6d7e7c5e37cd1aabb54723378e2517d446a57850fb9f890d4",
        "c71f7a47a17755c577f96c02ac4bde622d9f08c9eb4471ee66128369af2b1729"),
    "use_cls=False multi_block=off lam=0.0 channel_reduce=sum batch_size=8": (
        "25f8150ebb1c99df37d44631b3fb1a5481c1e0f14879b08130f6fca98e3b954d",
        "2a21f793f4ea0dd8ee7a032fa17c0ee7d95ae88b77b9f01829cd97d6be1b2c20"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=mean batch_size=1": (
        "e09fa5b0a4580f5449eb4cb131db6e6402c2de4391fc4dc5267b136bd41a2fd4",
        "68ded53dfc9c5d652dc8470409eefedf4172a3d42c7bdfe34a756ccc154b5977"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=mean batch_size=3": (
        "c27362b1be284680934aa048330a883d6b24f59aef8a0743a4e5f16ca1008d49",
        "a89b17e8503176640e7bcb819c4aac19508ec4e85867ec88dcb3e2d54a127c51"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=mean batch_size=8": (
        "4bed16eba622b1a69362454211f9b52f8c84465a55e1bbaba61eae902c1e774f",
        "863f477ff53690869b25a5f4b3fd025713a6d8f7ab266ef11af71d6c7f0682a6"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=sum batch_size=1": (
        "0dd6ac4e9b5be26f0e016d60180dcc68da325128e616ec7854d2eb407e55aa14",
        "1dac8ab9d5dfe062e4a9ddfc1c0137490d1e703346951b39cc10cf9f7d7cd27a"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=sum batch_size=3": (
        "cb3ead01fabd052a8ceccceeadd30005f119a8065c12bcfd316d127426fac029",
        "584c3ba06a05aa3264076f42f5ba51362472090e894decc39a901fc03df5a3a1"),
    "use_cls=False multi_block=off lam=0.5 channel_reduce=sum batch_size=8": (
        "00cbdd43e9f606fbb2f09d3dfabb38d271235da2872265bcff88708e45000f76",
        "87ca74de76d7d7ca25f54641d4e93301806e062ffd1b25bb953850c4257ec2fa"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=mean batch_size=1": (
        "258d9396cc6f2b5d1dea17813a44a930cef6fd2d065af8e1ecd0f6b7d2283a65",
        "2adc447c5e509ff080d410f2dbba22ea1d44b151f6b4131f39690b95cf9309d1"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=mean batch_size=3": (
        "533c0d9f118bd70535078f2361379ab69def885009b606d0f40213fac8d616f0",
        "2d10141a1227dc1a8a3dc40ab7806d51ebefecf7da9b62d407daab5d8b1dfe3d"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=mean batch_size=8": (
        "f84035b4b6ec61ed7ab3bee4e043713293fc1799c33e703f2359cc1b794b8ff7",
        "f88b16105ed43ec0e02ca85067ab7c853710b90031121bda6d13b871d64ee07a"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=sum batch_size=1": (
        "acd217f57efcc31a66487e6ca0dfc310116cd6a6ebb51d5a81c684a2e1a60502",
        "b907bcd4dd89eca66f45522fb16da21a7c7481ccc9c8e041525b7e70439031a3"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=sum batch_size=3": (
        "4d4d0379d82142a75771a210a46a0a45fbcc85bccadc3ef4aa07236a09732245",
        "b606207f87161913951f991d173833aa06a8a474e2517c45c71fe9120fda47ed"),
    "use_cls=False multi_block=mean lam=0.0 channel_reduce=sum batch_size=8": (
        "b158b03c5905faec46d8249b82aea30cc5bac231c16509874ce5df33cfd67af6",
        "492140170e42941be353bee3ffeb87aca8ddf74b0731256a7fd717eb9888be00"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=mean batch_size=1": (
        "1dbaef095f0500f56ff3647be76abd88f8eedebc8b396219e4f49cbbf7f2ac48",
        "b126239d02f9a92036accf493d8e2d57b147cc53b56fa744ee227de064272cc7"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=mean batch_size=3": (
        "5f6d13d0707950813c91696838a3b59db602673723610e6231b3709d5359cad3",
        "1154df66d7962a63ac50dfe0ded81a3e6954592bf5760fdbc6f5e357daadca70"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=mean batch_size=8": (
        "8dc2b54e94575cb5a8826ae4474b69bb6ee61feb71f58d665da26e34c2b0d2f9",
        "ce63465ee577dea01a23402873ac4c5eb359957f7eeff6755cf2799b83e3c1ba"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=sum batch_size=1": (
        "40a34e836c9b2fae3317689243376e10f8d056d7ba036d70217c43fedb97123f",
        "6fc384f76f5a697503d8a5f80f6c97cbd048f6b796a54ed26ba3bd6396508aa3"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=sum batch_size=3": (
        "606bd406bd2c63943c17477ca3021c4b8efdbae9ccc52a7f51c48e14c8f01d7b",
        "67758d8d697a12ed9592b085a2827007924d9f30909a33b76bfed1b385e862f6"),
    "use_cls=False multi_block=mean lam=0.5 channel_reduce=sum batch_size=8": (
        "ad9d232cf9dc1e64e51f60e6999fafc8ba28f890506f13e2f890b6f84d658a99",
        "0df84455d2c2bc2c55352d15028f11ce796b7c25190cc6743464d3eb19346e8b"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=mean batch_size=1": (
        "941c275a60a6233751df98062ff5864afaee83de96e2d99aac89d97c1e7de996",
        "09ba4c1072b93f262986174b8c2df979455ee1e40e19768b59c42921fb82271d"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=mean batch_size=3": (
        "7b9fe0c6fcaec2f9b72ba80382321e019e5d7337f992bb5a247d3b5f36f32f5d",
        "267bea5c1cdc157b5df5ae6e32c20c109d09990ea65f257704cc1549e8b83663"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=mean batch_size=8": (
        "0d265bb312dee58e4845fe732eb3659ece56acab4294989fcb1b2fd50b2b7c24",
        "587cf5de34926ac85f6986ba3090deb67beba64359cecf15aaea8ae58be8b49d"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=sum batch_size=1": (
        "5efff372a5d3fef7de21352969bca85ece0ab6fbe9b12b8b3bd4c8fe2d3cf41e",
        "46a9170b4e370358393e5cd0464e9e64009ac898efe5fd3ef2c35dd4fdfe9b36"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=sum batch_size=3": (
        "5fb9889dee584accce2fd2d2b468b27d99fd9e31557b2aba906cd2e62d87459b",
        "967dd9dc85d1d3a56417a1464aed6d81f635f535d840e58801a4d869e6543209"),
    "use_cls=False multi_block=sum lam=0.0 channel_reduce=sum batch_size=8": (
        "6779e2d30efe4d5613e257c1babc17a4f7679e793ab74568f77e678e4a0f7660",
        "a19f5340d9977b7445f35218aab4dbc3b9ee95b7f37c90b470a6362cb601db9f"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=mean batch_size=1": (
        "d564c9cd507f774e4c9cb8c7ba8cab35e9777b073a267bd70339d220ddec4d52",
        "a68177027d9acb13d932695d108ef8c6e93b4efb8510dd32c14a4fa90a7237d7"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=mean batch_size=3": (
        "86a7950bfaf952055fb22f67816c1bb97afa4906814962de2f7ae647deaabdac",
        "e4227c74ac0da6a7cc53fe05940519ff6cc826d263f04578be149334715cefbb"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=mean batch_size=8": (
        "c94fa7fae83e85ffa9f873d28c3e5573877945cadbe67e55b0329137580a2b05",
        "9682537994366eff5cfd9bc87e3fb6a75ed87f25e7661337ecedaaf30702db6b"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=sum batch_size=1": (
        "bcad46fb58f9b307feecbc1aeb0c22a72abc9ea56042b2523ab9c7ba500ec6ce",
        "bc0057d2e10ec0ad0c624ff68db9f5e0ea0ebe2d77b3ff6a47716e2882d55691"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=sum batch_size=3": (
        "663e2950ad769053cbdd231c689fc6b5a60207ba57c207c7a6e69bfe71c37654",
        "76a86f675e8b006eb716713887f688fed4ff8315fcce8c3ca5af18e060fd017c"),
    "use_cls=False multi_block=sum lam=0.5 channel_reduce=sum batch_size=8": (
        "c2d638529abc314582bd974e46fb87db75fee6afabbaf30c0906c14318267f61",
        "04ac02af9ab0ed53fe172be2802b8fc1f56e578c8d3d025ce75f46c77733ad32"),
    "enc_depth=3": (
        "8051a64e5e96ba47d8a7e5bab63b8e9e8da0526e251dfe72165ba9e9798d486d",
        "daff36af023f5bd9af5272898d057e102288f34e303fb0c71c6c6fd7b1368632"),
    "in_channels=1": (
        "9711dc77adefb2ae3fc321cd1d5f3606e23c51a28f5e11da81325aaa8a8e94f0",
        "5bb5df72e649a1e0a010fbe5461819d101ea26f9b12d1968dfa389227e38103f"),
    "teacher=file": (
        "3ed47a1ffbbcc89021dd1044082634fb4b159c5454db84fa2ffd17ed498a225a",
        "1def4fbc84cc0d1cfbf3c4f21abf36d7c6200421477cab9f1702bdba4d747bd2"),
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
