"""The golden grid: the bytes every step configuration writes.

scripts/golden.py trains 39 short runs (see its docstring) and hashes each
run's metrics.csv and final checkpoint. A refactor keeps every entry; a
change that moves one, such as a new float32 summation order, prints the
new table with `python3 scripts/golden.py`, pastes it below, and lists each
moved entry and why in CHANGES.md.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"

GOLDEN = {
    "use_cls=True multi_block=off lam=0.0 batch_size=1": (
        "3fadd33636b0e93bba9e659a57fbaa6fdbb6a7e9005d19bd1cc4efb93df61592",
        "d19ab3a5ba9dbfa24fa6951d4aefa6a8b29b049e30754c59568e00e294b3796b"),
    "use_cls=True multi_block=off lam=0.0 batch_size=3": (
        "269b72912af26a6fc7706d2cd675e4d119339d4773f0f2e2e1f5aa1c7451de94",
        "376dca1729dbd7d76ab36e3c6e3fde0299216c038ea4ac6f1c3e4330e2888b18"),
    "use_cls=True multi_block=off lam=0.0 batch_size=8": (
        "48a973a1b26231563119191a8af2401f0d96624702c0679666e39b2954b32147",
        "d71e29f8af2a6c91d6b9cd88de94225667b9b441ffe8f44c24025494c631a688"),
    "use_cls=True multi_block=off lam=0.5 batch_size=1": (
        "7ab4cf9a6138d4ea56e25a949f27bb5f7ce850ece0c2363f4963a914adf8ed05",
        "966f8cba017b96550be656d751c4c363fcbd45e865391d7b0e7b2f57b1ff31a4"),
    "use_cls=True multi_block=off lam=0.5 batch_size=3": (
        "b60279b02f03396b1a531d5b230fa782b6a2069d8cdd74775aab5676f0918912",
        "c6df233e64822dd50a0daf938a9d196a083751c95b8f05813568899861754785"),
    "use_cls=True multi_block=off lam=0.5 batch_size=8": (
        "87d23e1df1ea1cddf47142e7e51fd61ef9afe2ba18562815cf0bdb93b159d17b",
        "5fbef0f6ff3470f5d6f187c4b3fb5aabfc0e104e971cb286bdfe49f182fffec5"),
    "use_cls=True multi_block=mean lam=0.0 batch_size=1": (
        "49400209faf54faddc4443c4aabbbde80f0855cd7314bc2cf366923441b5ea69",
        "67dff7753e498c21e644ff75bc3ee5c68ae2721dbde750ac953a4a95a6356b0f"),
    "use_cls=True multi_block=mean lam=0.0 batch_size=3": (
        "3f3b84390c703b9f038fc5878ff877b64f39131f55ca822bd7e3d160dc3191ce",
        "656f9919a679f1386a13fbb5aad0b57c823eb08645556d94269dbbe83b8177f3"),
    "use_cls=True multi_block=mean lam=0.0 batch_size=8": (
        "b5a94143f347c2f97a8a6a5c398acee19e7e32e805c69b23962c0bb9f819c33b",
        "918d528484be7ce89e7f90c2145bb806f828d9650e02f8aded2f3868a96a184f"),
    "use_cls=True multi_block=mean lam=0.5 batch_size=1": (
        "17ed80d0aabdcf979e1c6b6383d9bf125411524755b06ee8ea9514eb1bf100bb",
        "cf3474af63647c52fdaeb92d88365a071378273c83a2eeac5e5e71e14dcd5128"),
    "use_cls=True multi_block=mean lam=0.5 batch_size=3": (
        "4198bdb7d324d7e09637c51f91baba2bff002f8b9d7732e714cdf7c5fcb6ab84",
        "fc7637b7a839db428ed6ee3c32fc7e8662d393c32a0f70a141fa384468a1f0a8"),
    "use_cls=True multi_block=mean lam=0.5 batch_size=8": (
        "12c365a24cffac856200623ae3671ec50e1ed20af6da4c7086fbddd0fee65356",
        "158a4b603a2937d26c0d4de1ef79e66d584b7d1aed3505af22bba09e2b658665"),
    "use_cls=True multi_block=sum lam=0.0 batch_size=1": (
        "1a3f11d02baa040ceb768d9264922acad685515362437191c4e7f361f0711684",
        "dd732d1919edabe872a186fe3851bb0f3e18a0b08b796fdecca718a3f65a6ebc"),
    "use_cls=True multi_block=sum lam=0.0 batch_size=3": (
        "2b4779f80ea3c207df74d694cbf189cdb40de450cddb5a972fd54c121ef12f93",
        "a25062999bd10ab91a99c3d87d9d2ef00490681ad66d0b5a6a08fee731dcd35e"),
    "use_cls=True multi_block=sum lam=0.0 batch_size=8": (
        "d3f6a6286afebe061e31319f4d80fb6d2c9fb037fef35631574cd1172b3559b6",
        "f84836202379858e0cde51f9a4da57b774840a6b10790068cf9bf5e242093a62"),
    "use_cls=True multi_block=sum lam=0.5 batch_size=1": (
        "608e3f907d54a91089894e835bfa2b21ad4f2e25fc717a0ca44519ec315f15a4",
        "c9214fbf44edfadcb26fa154da80028996f227ed79c020f5c6347baec79f53c7"),
    "use_cls=True multi_block=sum lam=0.5 batch_size=3": (
        "216c994c1f955e3b6e3dc6ea62dc7fa893f961cb13cbd9ecfb5dc3a5fa248898",
        "90f8e061b76d8ad333e906a9abd79596bd35478a39ff8c58029d014b7884d632"),
    "use_cls=True multi_block=sum lam=0.5 batch_size=8": (
        "8f6b36df455967276d8a96bbb4c7a9b3e3a62f13ee46aef21681af2e206e1546",
        "521090536d9f93f8a347a98ebf69393876ef24b10d3496dee55de23a3a21851d"),
    "use_cls=False multi_block=off lam=0.0 batch_size=1": (
        "c3acb757cd97f97aabde0a59a1610797dfe2720b53d1f169f5f7cc0fbcf16239",
        "aff668f35337e6d759d1a324b8354f7be9f33aac5bbaba77aa2a1663c36324d8"),
    "use_cls=False multi_block=off lam=0.0 batch_size=3": (
        "46935919ee739cea981563ff650c53dd6a1110fbb8dcd18f70daf7887d2333fd",
        "b85d28cb696d232294235a7ab2626678e19f546b52868799dbb043103753cc03"),
    "use_cls=False multi_block=off lam=0.0 batch_size=8": (
        "cd5f14a99fcf239a3c0c7accad7d7fb57424f23bc26f6447e1d740251ce49c50",
        "d4cd5568775c79ff37637c2e28755d9f417ac2d8674fbf31ebe0e3a76be9729c"),
    "use_cls=False multi_block=off lam=0.5 batch_size=1": (
        "e09fa5b0a4580f5449eb4cb131db6e6402c2de4391fc4dc5267b136bd41a2fd4",
        "0d504d78a95591172288db1e31c697f58fab7102e147214d26ebd7c43d611e06"),
    "use_cls=False multi_block=off lam=0.5 batch_size=3": (
        "c27362b1be284680934aa048330a883d6b24f59aef8a0743a4e5f16ca1008d49",
        "7510a9f3bf9cf3a45a820e56d19b9c333473e34233110d1e72434cd4f9245eab"),
    "use_cls=False multi_block=off lam=0.5 batch_size=8": (
        "4bed16eba622b1a69362454211f9b52f8c84465a55e1bbaba61eae902c1e774f",
        "f806bf0f8edb7664d3ca3dbc72d0ae1f08d1846a725cf810c9bdd12a5d18eb91"),
    "use_cls=False multi_block=mean lam=0.0 batch_size=1": (
        "258d9396cc6f2b5d1dea17813a44a930cef6fd2d065af8e1ecd0f6b7d2283a65",
        "1ffb8eb88b27edf00d6cd0222c3454f3ebb0e9ad559a2a0f6198f0fcc12341cb"),
    "use_cls=False multi_block=mean lam=0.0 batch_size=3": (
        "533c0d9f118bd70535078f2361379ab69def885009b606d0f40213fac8d616f0",
        "9d5d64a9555dd22840368a3e939ddc66a4cd5a9af62f4795bd76000282157e52"),
    "use_cls=False multi_block=mean lam=0.0 batch_size=8": (
        "f84035b4b6ec61ed7ab3bee4e043713293fc1799c33e703f2359cc1b794b8ff7",
        "5abd2cbfecbeb26c628f6eccc1e84606aeaa4da3761f156a34ee592194e6cfb4"),
    "use_cls=False multi_block=mean lam=0.5 batch_size=1": (
        "1dbaef095f0500f56ff3647be76abd88f8eedebc8b396219e4f49cbbf7f2ac48",
        "eca112a60584ee28a7a99c3066fe066fc3849775c36dae42c483c1d6f2a1e45e"),
    "use_cls=False multi_block=mean lam=0.5 batch_size=3": (
        "5f6d13d0707950813c91696838a3b59db602673723610e6231b3709d5359cad3",
        "5e06aa3a397946cc4a9c7aaa31ae21dc236adc1328a1753ea90fbdc89cdc4360"),
    "use_cls=False multi_block=mean lam=0.5 batch_size=8": (
        "8dc2b54e94575cb5a8826ae4474b69bb6ee61feb71f58d665da26e34c2b0d2f9",
        "d1fbf95b9be2370684c2cb8d39ced0bdbacf790f7c9d1bcbce6d05e5bfc43326"),
    "use_cls=False multi_block=sum lam=0.0 batch_size=1": (
        "941c275a60a6233751df98062ff5864afaee83de96e2d99aac89d97c1e7de996",
        "c43f1b9236d78f1deadb598c16b2c3b2c8a1526a637cdf39cd9bfadae8191fca"),
    "use_cls=False multi_block=sum lam=0.0 batch_size=3": (
        "7b9fe0c6fcaec2f9b72ba80382321e019e5d7337f992bb5a247d3b5f36f32f5d",
        "3c36b19dd2fb59e5699626c272d10c1f732d7047d6bae58da55a401fe8b46a26"),
    "use_cls=False multi_block=sum lam=0.0 batch_size=8": (
        "0d265bb312dee58e4845fe732eb3659ece56acab4294989fcb1b2fd50b2b7c24",
        "a99168345195dc3ea7ed130129f3c663d73f16f855a8923b9c8c7e75916be9a2"),
    "use_cls=False multi_block=sum lam=0.5 batch_size=1": (
        "d564c9cd507f774e4c9cb8c7ba8cab35e9777b073a267bd70339d220ddec4d52",
        "bbd7ef24646e4dbf3249c6f68cae8ff78febcd2cb41e5fbade05e9d16f41364e"),
    "use_cls=False multi_block=sum lam=0.5 batch_size=3": (
        "86a7950bfaf952055fb22f67816c1bb97afa4906814962de2f7ae647deaabdac",
        "dcacfe7314aa60aa8c15804f84d6eb24998140abaea8461d77b7e547b2b2d198"),
    "use_cls=False multi_block=sum lam=0.5 batch_size=8": (
        "c94fa7fae83e85ffa9f873d28c3e5573877945cadbe67e55b0329137580a2b05",
        "8f80974a474c99a64bbea21c93ebd584d36753fae0264d31985c037511dd5c1e"),
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
