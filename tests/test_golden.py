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
        "e65bf2741dbb5e651b7a879d4019ee386121f39adde75f4ab647cbe4d8c3d763",
        "6a337dafd1d81d2a83da0d169e1496f93580d6bd9fc8350bf13c3586f7d0b595"),
    "use_cls=True multi_block=off lam=0.0 batch_size=3": (
        "0801ca1c1da7b4c6f12b0452b760936976b6b9f43850a4aacf3cb8b1e7b8677b",
        "bc3f8df2c325722ce5449dcd0b6258f9fdb1a132bb3dcf5d4494199b028e72bd"),
    "use_cls=True multi_block=off lam=0.0 batch_size=8": (
        "004874adbee3e3eedf53c788628737975b8787f1bb1681656cb497efbd44f7a3",
        "895746603840428b35091cf3b7a3bd389bb996dc04a5391749f225785a5d2865"),
    "use_cls=True multi_block=off lam=0.5 batch_size=1": (
        "a49fea6bb47500a00251a59917cd2f6662971037e9f3c2b7c3a4aeaae82da482",
        "a49f353b9d7dff9791a6d6a9d78ba07c27ff7c6cd0591c8dd55d7259a3cbb98e"),
    "use_cls=True multi_block=off lam=0.5 batch_size=3": (
        "5ca18e422407c746a8a1bac04539b7145451947410df508526da16688d587a8c",
        "15439593408d8a7adb10d7342a6b2591a8858722c81a2f78edc58a8688468985"),
    "use_cls=True multi_block=off lam=0.5 batch_size=8": (
        "04ccdb794815a273d438f38735fbf81b5766fab7d8e791251032cc76d0b94f01",
        "c5d25268f1910ec578c3bb998c338ecbffa1feb6d4ebeeb2e2299e21f46a640b"),
    "use_cls=True multi_block=mean lam=0.0 batch_size=1": (
        "54d8589188ee0e31b83e22c8896e42de193c99ff72866c2594ee14cf6e22c74c",
        "552d575cb3e7189959c88b599f4b9cbd840525a940d421838769aeb328409d4c"),
    "use_cls=True multi_block=mean lam=0.0 batch_size=3": (
        "5688d57545611a83cb918fb79979f46923e997c5162db82e12464359cf03fc12",
        "60c959c0dee5864139a6aa4063f0f0a0d4d054270fad953b38778d040d027ea0"),
    "use_cls=True multi_block=mean lam=0.0 batch_size=8": (
        "18aa3de5e0ab5bb34d366633ab8dd3885ec42bbf7f0a74b3f14a0d6c488f6ae6",
        "7f61e1b63b454933720b2d9b1ee3d1e7f394009b92d3e840ca8346b74bca0152"),
    "use_cls=True multi_block=mean lam=0.5 batch_size=1": (
        "04a9ca1c191716baa8f13b33b8af0145964acbe9f2464f6b03a56a81219e7e48",
        "cb0a225a39fdc973618b3f3be23018eb755f60095ab40926fe9329b7cf7f17b7"),
    "use_cls=True multi_block=mean lam=0.5 batch_size=3": (
        "e8b7e2132f5abade285090e48eaafff20fc42e7e8bd0ef70d22cf697361a887e",
        "a58a2c427f9c2fac7de9d57fae79e197e846245c2064136b9de2273255a48ae5"),
    "use_cls=True multi_block=mean lam=0.5 batch_size=8": (
        "c7f5bf8336594172c599eda9eb2c27ecf4a702287904f1c912bd80daef815d24",
        "51480c48894fdaf3ca9fd07b155217d4332692cef8b5846ceeab0d7c277e0a0b"),
    "use_cls=True multi_block=sum lam=0.0 batch_size=1": (
        "aae0474188c7a9c80d5daa9c56f2f76439a08fdb1048365fbcf72cf8038dd5ff",
        "4d22deb2c32d4ae3afa6070df74778f0ec9e9fc49fef27e6b67e16766d49ddd4"),
    "use_cls=True multi_block=sum lam=0.0 batch_size=3": (
        "5e474228351af4016aa02e320df5b03de6319cc11905b3f25b8b0738895ff92d",
        "1a858de8fd68775dd2ae97300cb2263b83203823fb0be51d0a85bad52a3b0c12"),
    "use_cls=True multi_block=sum lam=0.0 batch_size=8": (
        "2593f8c99e4d0dbd3538002e9ffa978a0b8ae2a4d34ad1f523495db5acaf6f92",
        "e86824081ed1eb53b1730061d1e156fac9b67945ae8017f33b6d9e19501e104e"),
    "use_cls=True multi_block=sum lam=0.5 batch_size=1": (
        "561f00dbb8c039e56d0efd724a6fcc5128ea2050c61b180a34cc63f5d6f02904",
        "6ebb70be4a5368b99f5317097c70a872fd31443eee6920d328aaf1fb4351a3bf"),
    "use_cls=True multi_block=sum lam=0.5 batch_size=3": (
        "6958953a9614c2b7c551f248e343485e6c1022d077915880079ef93accef2fd2",
        "046e3457a05a861807e5a16ba7b83ed8a22db88a25cf4a240506c8e29484b678"),
    "use_cls=True multi_block=sum lam=0.5 batch_size=8": (
        "a1212785a6975fd7dfa14d0468a54e64494db1c8d2890e93d18981076fd38a58",
        "49cfcfca224e95872485782894f587e84ae5d56b1d0f9f3a2e1ae0bc82ed95b5"),
    "use_cls=False multi_block=off lam=0.0 batch_size=1": (
        "6391fae1ec95c1c47ce4696b32251aa2d2b53b9c7fbdf31ee9703f85ee58d8bb",
        "0c9310f22517df84fcc690d6decd949462787483b271469eb36091efcfba186e"),
    "use_cls=False multi_block=off lam=0.0 batch_size=3": (
        "840b098e04994103c4065f55a3dc564083cdf1f82c4544df9be1a52b0f14b60d",
        "78ac7b5e54656999292e173596dec332d33989a76db0ddb47fa7495604d8f0dc"),
    "use_cls=False multi_block=off lam=0.0 batch_size=8": (
        "85c72a727eee5a0181e9c79d6ec261a24908b165545c7e71f48f037cea5c9fc2",
        "e22f166f440e10a1b83b38f2460ac781692d2861c567817da532886aa19b2ddc"),
    "use_cls=False multi_block=off lam=0.5 batch_size=1": (
        "8e30f34d4ade3ec95a71094cab9a3cc379a07fa05cf4283ac44caa9e7868ff1a",
        "32c0104b953a75c3d13779f0dd6982d8a70c17145f0053228b274ceaab2ed1ba"),
    "use_cls=False multi_block=off lam=0.5 batch_size=3": (
        "7c4b5fad5e2a99a5598f959ae44f46017e704741a9f47ca9d337ae3bb35132ac",
        "51009315fd03700516c712db9d342e13545e5a453b0d16d9733c337399712f76"),
    "use_cls=False multi_block=off lam=0.5 batch_size=8": (
        "c538c11aee9ad16142e02a30642ac847aeb18d16689998fc661f94214b5c79e3",
        "c0991d759560a4d4072759acca60d4041920d6f653eec4c2ab6762865ea47e5d"),
    "use_cls=False multi_block=mean lam=0.0 batch_size=1": (
        "58e4b36c5de5938ff593f142dba38782ad27ff971d6796de335464e5eb2c7036",
        "3110f6e9b65750327570817d5f3e3fa82b8c2eed0e643f16447659a6ae4af3c5"),
    "use_cls=False multi_block=mean lam=0.0 batch_size=3": (
        "bcb8cf44df644d669563bbd32920b639d2a795111533ed358a2705c2a77786f1",
        "03d90a2d9c7f3cf243d80bf3ac5f4c6fdfe44303e17860b8e7c5fcbd9397f549"),
    "use_cls=False multi_block=mean lam=0.0 batch_size=8": (
        "4e0179d17f8c65e06d9122e09019018606e4291e0809f824c793d30eb4ade60c",
        "1c974192d4113b880efb5a7c932a9b86ff4069830e251a6d157c96af3ee87cf4"),
    "use_cls=False multi_block=mean lam=0.5 batch_size=1": (
        "6d99b4846bf9f61045c0a6a081d5c84fed937cab0219974c19b81182c445a223",
        "69ef3db453d31d2e788d102070fac07d4c78a6928eb05a86263b725197281abb"),
    "use_cls=False multi_block=mean lam=0.5 batch_size=3": (
        "68467adf644071b6915fce82c1bca0d20d855d9ef49a9934f311ed92b7b4b017",
        "de496f70e4826b82517ff8afc1e22bed9f7f31a0b0ab32256a435bb362b435e0"),
    "use_cls=False multi_block=mean lam=0.5 batch_size=8": (
        "4fab64aaa853044453419cad94c76c0518f1b468fca5ec2f09bd5c8b6073f96d",
        "bd9a5c41314c63443d5b0a3bab8d043533ae5de6ea095ffe7047915f84027b9f"),
    "use_cls=False multi_block=sum lam=0.0 batch_size=1": (
        "8877b297926bd94a5c08578ff6f11e5bf141649b8b693ab48ed8eb0273fd34fc",
        "99eca217fa6d334b5047bc09a6cb42c38fd3b09d17c7e9b483122d84dcf6f833"),
    "use_cls=False multi_block=sum lam=0.0 batch_size=3": (
        "2d47265c7226ea8df38857e8278abe3b8cfca9bdc70ade903c3441344c61b56c",
        "b6fa55b6b6ea0bf6c8e0e49eed4a69270fb6d6b2cc2d06a35828f3f977e51a38"),
    "use_cls=False multi_block=sum lam=0.0 batch_size=8": (
        "79e3c8fc711457eec8953c629cfc56ec519ab721edcdf7bcb5620c6aef61254b",
        "726e14f89534a0e4b45677484c07a2c1d38a713b8ee9a5aa810da53a9a8092f7"),
    "use_cls=False multi_block=sum lam=0.5 batch_size=1": (
        "fcdd09cbc0e5870a5973116eb7641aa6f92f1c0f6d5b45925c52b31d855ebdd4",
        "b65f14a161763fb36c9602773b5c298dc34d00472ba1eddd17d3cef180be9ead"),
    "use_cls=False multi_block=sum lam=0.5 batch_size=3": (
        "fe1d450d83d8aedd634d521604455a025b7c9d6d507c9ad00156af611c48482e",
        "e6e59e9954de76ac6dd9647b45d7ef7fd5405bab64a997c92516351f4094129b"),
    "use_cls=False multi_block=sum lam=0.5 batch_size=8": (
        "4929475eaec4069a524b5ac086a0c335af2b8509048c32fe0c59f7d09ae154c5",
        "5e8aba76723e4942ef8890466e75372abcedeaad770528601358f158f5098943"),
    "enc_depth=3": (
        "cad442f252a3c18a534da2ffe65f8cca34db3926bb6aa81ae8fb62403a281e6a",
        "31d853d535e83e46a701ba71fcf814620e8e6e6862e056b72c35dd0196b1ab5f"),
    "in_channels=1": (
        "1ab37aaa955f6c3b8b7f244e37af19b4efa9cfab0ec2fd197b6e6317016578f9",
        "c115d5897c7048be22e5519c33fe33b4314d9fe8027a56254443188b3a659a27"),
    "teacher=file": (
        "0970ef19f581806b49ce414b01e13fe652281b27dd05bfb490b60ba8a4d3bf74",
        "b067d2592133ffc6ee0d0e9715b15f1cb4182de82cce1e5f60943335ff4b6e22"),
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
