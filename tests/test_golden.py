"""Byte-identity of the CLI documents, pinned by SHA-256 digests.

GOLDEN maps one ``run_command`` argv (space-joined) to the digest of its
output: ``info`` for every self-check algebra and spo2-16; ``modules --json
--ledger``, ``modules --affine --json`` and the text tables ``modules
--ledger`` and ``modules --affine`` at the first two standard levels of
each; ``range`` at one in-range and one out-of-range level of each;
``modules`` with ``--json``, as text, with ``--affine`` and with ``--affine
--json`` at the four deep levels of the benchmark (f4, spo2-16, spo2-8 and
d21-5-3, 8,246 weights in all); and ``selfcheck --json`` with and without
``--all``: 172 digests.  Only digests are stored, so a mismatch says that a
document changed, not where.

The first 104 digests were frozen before the per-family facts moved into one
table, and the 68 text-table and deep ``--affine`` ones before ``modules``
wrote each record in one step; all must hold unchanged across refactors.
A deliberate change of output, such as a wider ``selfcheck --all`` grid,
re-freezes the affected digests with ``PYTHONPATH=src python
tests/test_golden.py`` and logs each one in CHANGES.md.
"""

import hashlib

import pytest

from walg.catalog import AlgebraId
from walg.classify import standard_levels
from walg.cli import SELFCHECK_ALGEBRAS, run_command
from walg.scalars import rational_str

ALGEBRAS = SELFCHECK_ALGEBRAS + ("spo2-16",)
# -k = 1/3 lies in no family's progression and is no family's critical level
OUT_OF_RANGE_K = "-1/3"
# deep levels of high-rank cones, where a document runs to thousands of records
DEEP_MODULES = (("f4", "-82/3"), ("spo2-16", "-7/2"), ("spo2-8", "-13/2"),
                ("d21-5-3", "-75/8"))


def golden_argvs() -> list[str]:
    argvs = [f"info {name}" for name in ALGEBRAS]
    for name in ALGEBRAS:
        levels = [rational_str(k) for k in standard_levels(AlgebraId.parse(name), 2)]
        for k in levels:
            argvs.append(f"modules {name} --k {k} --json --ledger")
            argvs.append(f"modules {name} --k {k} --affine --json")
            argvs.append(f"modules {name} --k {k} --ledger")
            argvs.append(f"modules {name} --k {k} --affine")
        argvs.append(f"range {name} --k {levels[0]}")
        argvs.append(f"range {name} --k {OUT_OF_RANGE_K}")
    for name, k in DEEP_MODULES:
        argvs += [f"modules {name} --k {k} --json", f"modules {name} --k {k}",
                  f"modules {name} --k {k} --affine", f"modules {name} --k {k} --affine --json"]
    argvs += ["selfcheck --json", "selfcheck --all --json"]
    return argvs


def _digest(argv: str) -> str:
    code, text = run_command(argv.split())
    assert code == 0, text
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN = {
    "info psl2-2":
        "57c5678f0d01f1538e7293000491446167b7c07bb4e9befadf82db4ee2b0c67d",
    "info spo2-3":
        "f50bafd2bc0583019a79aaca503124fa50e52755ab9824ad267938728daef295",
    "info spo2-5":
        "6bdea73e0d833f921ca3059e4fc2795e29df136f157f59001f38efcca08abaec",
    "info spo2-6":
        "763960690d23244288cb9b071f77d5872e5c4a323e2ec95f187515229d05e348",
    "info spo2-7":
        "3b2c550f96826ee8a92506526b65abc199cb48caf8a442a46b7c0f8846604acc",
    "info spo2-8":
        "04005d54e4f8c1f8ebe29e46de8dde5819e24ceed78efd2fd1aefd68956793d5",
    "info d21-2-1":
        "829ac1715df3643d5e33d3764d37ae9dd998b57dd406919a6e93629dbb79aebf",
    "info d21-3-1":
        "2eff611780c035a81bbe78866db11106514fbccd7a482064b1c153f9cb9418d5",
    "info d21-3-2":
        "1fe1a915c66f3604a31980a6b93c9ad649944b79089e5debe321f40fadc5c1f1",
    "info d21-5-2":
        "65ecaeae548baa9d1e7255e8f1e5a32c25ff5eed6dfa46fe1125c26e852683fa",
    "info d21-5-3":
        "595ecd835ad310f1bccc4706e3f45cc41ddc4128d23c7c77974b68e34a8a79dc",
    "info f4":
        "f242fd71ae14cbce85876bf410933159bfa268513553fd9fc11ad16dcc4506ca",
    "info g3":
        "c0f94cc317621c6bf98779d9f71df1e92f176f13d818805719443a6fbe63daff",
    "info spo2-16":
        "be49bae3e52e8956334ea5043a738963fc789ecf0601868da4a27413e4fda17d",
    "modules psl2-2 --k -2 --json --ledger":
        "67f80c78df0e6dc4a8c0d6330a14a7e9dee570216591a76d6c848a047cb54775",
    "modules psl2-2 --k -2 --affine --json":
        "c4cebc7dfa7030bedd6576b1afe77675d4b1e082908ffd61d1f92b863597db6d",
    "modules psl2-2 --k -2 --ledger":
        "992a321132b094752d04dfbe95ce34324d0a24a520e3cf3bbd6009d71e7bb9cf",
    "modules psl2-2 --k -2 --affine":
        "2c61875e00facae8ee0ec512083f2836ad06c7a0fbf5ea282652fffe2d02297b",
    "modules psl2-2 --k -3 --json --ledger":
        "e37414b9e674c5516cb83d82eda96c70a454b8aec23b6cd7ae74aa3e8e61fd8a",
    "modules psl2-2 --k -3 --affine --json":
        "5afdb873e6f370280173a16127828f1bfc379d435b4c6468fe0dbd7705cac986",
    "modules psl2-2 --k -3 --ledger":
        "ff4605ed33ffc691ff44b06f9ec97ead08915149b9c9b704082f9f28eec3c014",
    "modules psl2-2 --k -3 --affine":
        "af054332baaa10bf2b25c4f8ebb9ca77839c30be1d0f4f052bbb2480d1cb65de",
    "range psl2-2 --k -2":
        "44d90550d4f6275c0d3b4065e886a50e274209c3bcdde46a3978e26d89e1a833",
    "range psl2-2 --k -1/3":
        "ff319f8cecb0ed1463eb6e11f128afb3f66e61c945aac96123ee918f539ffd71",
    "modules spo2-3 --k -3/4 --json --ledger":
        "f64585f4c61d2c9d81669be04a24704f6a4f22b036241bfa2a05e8d584e950f5",
    "modules spo2-3 --k -3/4 --affine --json":
        "5d55cc402c7f4fc50f69a7ca6bc2529cddef576ceca97efe99c24b9dde7c38dd",
    "modules spo2-3 --k -3/4 --ledger":
        "e2d058b859522a518ca84970e2c0dd513286c990e40f8e63d7b8f9ac4710ff48",
    "modules spo2-3 --k -3/4 --affine":
        "774e4b880a6df3851fce50f42ae9629a2b2b7089d09a5a3da49297c53ea73012",
    "modules spo2-3 --k -1 --json --ledger":
        "0251b963db5e59cdcab9d1fb363e6445d1106d5a297fa2b8c3c6967f2b262837",
    "modules spo2-3 --k -1 --affine --json":
        "b2960f10919ea4dddd12a98c95e553e1ab964816b49af6577bcd5468ec1f1c37",
    "modules spo2-3 --k -1 --ledger":
        "ddcfa9fdbc6d4d452a4fd6d6c89db61223e98c8fd22196a5745e38285ce18684",
    "modules spo2-3 --k -1 --affine":
        "1205f18c1608e4f4290a8a2fba025eb6b0569fd98d4395c9f405c6950252248f",
    "range spo2-3 --k -3/4":
        "4d07cafcfffccbfcc7953d0e9d2b76e80ebd185434e4e95b568530589212a58a",
    "range spo2-3 --k -1/3":
        "a61b70b8f143c2270bb2acaeeac5b03c8e2e425ef8320e7fb838bd1e0ed3c0af",
    "modules spo2-5 --k -1 --json --ledger":
        "2807967474de80e45b7e3a2808b038d8a317a2c51aac5849cabe7ad179082a4e",
    "modules spo2-5 --k -1 --affine --json":
        "11e013e3a4907e5e3dd90fa8dcc896dbaf90105f0aba926cf77ab92a5129a922",
    "modules spo2-5 --k -1 --ledger":
        "928c6c3b1512c6ff62ce68ce44dc1a2feabc4a371162629f89821d56420dc371",
    "modules spo2-5 --k -1 --affine":
        "80c9cbfed93c655b4f5f30317e4482cf534ebc2b81e72500aa40a9ce581e9ca3",
    "modules spo2-5 --k -3/2 --json --ledger":
        "177f958c508931107c78c22334f63981f53694b0da9f0d11c67d39e6990dabe4",
    "modules spo2-5 --k -3/2 --affine --json":
        "476c2fb840336ab4e686f59f3ea754499a50084a79263bebd207568bdd46e1e8",
    "modules spo2-5 --k -3/2 --ledger":
        "3919cf757f497dd81bbcf246af56fe4a4e850a97051eb1c8f19cce7dd08609df",
    "modules spo2-5 --k -3/2 --affine":
        "64c54ca85f915dface2f60a65f1c81069f2da3340dd94535b668043bdc4b426a",
    "range spo2-5 --k -1":
        "d670944ea4f47533ef53ca69dcfe077361fe972ac5ab848a390adef952819944",
    "range spo2-5 --k -1/3":
        "46c86e64638a9afea975839e28a299ccdeffa6440ed63d9e1d38f71ee33718a5",
    "modules spo2-6 --k -1 --json --ledger":
        "4b93426188cb7dc029d49f67136020c5693f2386280bd81967b7b815dabf91e7",
    "modules spo2-6 --k -1 --affine --json":
        "d7feabe25e5435dc9bbd7b13d4746c2260bcca4bcb03f7ba2b33bb79212f8233",
    "modules spo2-6 --k -1 --ledger":
        "c5a8f97d8f2ac6d4f7a9b8a775ebaf7fa0f6295dd45f2538d83e67109d308588",
    "modules spo2-6 --k -1 --affine":
        "89638313ac18e958f477811132e4f2ff7908a2247b42ad2b64a279af718e4627",
    "modules spo2-6 --k -3/2 --json --ledger":
        "df7bef2243e083daec83b71fd894b263e2d7f57ff43a8bd0b2b8cb2d0945d820",
    "modules spo2-6 --k -3/2 --affine --json":
        "2cc0a83247d3f3bb8b3e0039544b3d02b83ba96c8eb1e78293acef2e0099d54c",
    "modules spo2-6 --k -3/2 --ledger":
        "f908f03295e4d014ce7092733e9b4a315fa96427e31daddbd61b6e984271ac11",
    "modules spo2-6 --k -3/2 --affine":
        "c2aa56c83559b919a23d1e0848ec5840c1a0a7f520aa604da19a101e352ad90f",
    "range spo2-6 --k -1":
        "7c6d432b0c09353b69cd704a9b2a63c1564da896ad08ddaff1be487a9bb8ca77",
    "range spo2-6 --k -1/3":
        "1d28b8c8ca56672ef968bc5548951b475f685e3276900f5c515b019864b226e0",
    "modules spo2-7 --k -1 --json --ledger":
        "12b7ba4e3129f19b6cc56fa873581af1ff5ed7e4d9aa40c46d11dfa6a6197e1a",
    "modules spo2-7 --k -1 --affine --json":
        "1c4d789136ae02f937ac4ecc993b40963855b4161ecb03aa766211b060d95d48",
    "modules spo2-7 --k -1 --ledger":
        "9ea02f4d7405dc9c36746754507953e05116aa03cb2583e66d758d05a1517805",
    "modules spo2-7 --k -1 --affine":
        "965f47d0728cc300ed555e4896c5b60bf3798ea559d216f514583cd3c1fb4eab",
    "modules spo2-7 --k -3/2 --json --ledger":
        "c37205cfc8050d3f1b3c72e5320dc051391cbf42dff3aba09567e4dd1b70a82c",
    "modules spo2-7 --k -3/2 --affine --json":
        "748a7244b31a64e77f4e23c4c4e1fe6668007afcb230ddb229121de050a80977",
    "modules spo2-7 --k -3/2 --ledger":
        "89da4d5e7914e18e6ef7e105045d51cc78cc72c03824e53db5fc7c3aeb578afd",
    "modules spo2-7 --k -3/2 --affine":
        "e2290e9c6064913d7daa62225701db7b6508a4df50c8dea98020a26cba764628",
    "range spo2-7 --k -1":
        "43135bf15310927d668fcc62f2e66c386092569fbc6253c9c79992569346632f",
    "range spo2-7 --k -1/3":
        "5144d07a6c0e0bb4d19b3b92c0c0a7f78385952002dcb8de070bf1ebfa4e07ce",
    "modules spo2-8 --k -1 --json --ledger":
        "f1c42f5a071439671f5aee4b8017456594b6e45e9c70789ad7e3a753fa6580e8",
    "modules spo2-8 --k -1 --affine --json":
        "38644f893a313a3cde7d30f39d4c4a0dd62c846107ce5a6662bf336b413286cf",
    "modules spo2-8 --k -1 --ledger":
        "c7cc53582fbcf323cc89a626006b29d00daac6e7af08c326307d14973374803a",
    "modules spo2-8 --k -1 --affine":
        "db65f29b14c509df6ef0fbb23db5aeb6bdaedf514ef737922dbdf3ba2ccb3c94",
    "modules spo2-8 --k -3/2 --json --ledger":
        "503d4c4af327d49cd44b6b222b3a193275c2ecb3a3205adfa5801a92b4dbc795",
    "modules spo2-8 --k -3/2 --affine --json":
        "785df280992094fa2c28814e22ccfa43338d76e0bdf80c46bde694e3f0cb0dee",
    "modules spo2-8 --k -3/2 --ledger":
        "676e168670e743fe0fbf4c206cb7350296a121f639e61d035586612609406da3",
    "modules spo2-8 --k -3/2 --affine":
        "cd1a1f049daefb0079cc071923da2ba222acc49db5d2c5a024db318d0856440a",
    "range spo2-8 --k -1":
        "2900cdb801bf42fe47faf53a6f2c5ebbab7b77c5c74301cd880133721154951d",
    "range spo2-8 --k -1/3":
        "28f79a77ad545d56b778ae5de4ed1a0195055c1bb25d52e3db78ae5fc241e56a",
    "modules d21-2-1 --k -2/3 --json --ledger":
        "d29972a543eab49e09aade8869e4806b4da61e4b42fc0ac339a38128f0b57eda",
    "modules d21-2-1 --k -2/3 --affine --json":
        "1843ddfab2bfd413991e2db28cbad45313d221d38dcb75c69a72614eb3dc9ec9",
    "modules d21-2-1 --k -2/3 --ledger":
        "52d2ec354026a1b944701a8b44c7f63b0300d95cb12d39b0b3fc99833172468d",
    "modules d21-2-1 --k -2/3 --affine":
        "1795f20b1bca6d0f173bc9411fa1c833281f5a92b6f41c5d1529986b82748343",
    "modules d21-2-1 --k -4/3 --json --ledger":
        "d163ffef7cd42ec5fd7e59713d3ceafc2215684ce7161c7afa826bb49f516f04",
    "modules d21-2-1 --k -4/3 --affine --json":
        "774bf0d28d437c95ae7976532c798fd3932a802141b2bd5e8938877a486ed330",
    "modules d21-2-1 --k -4/3 --ledger":
        "67db13de04793661a1295c0d38c29b0e254662c6e8218c28bf5df8d601a3b561",
    "modules d21-2-1 --k -4/3 --affine":
        "c872c28e573bb8573b4d2a427bb797fe70004aabf89289de2be9328b67fe9bde",
    "range d21-2-1 --k -2/3":
        "c4dd6c58a42d07171119679aab062917e77206aade9a55f55f6d156529fb4d53",
    "range d21-2-1 --k -1/3":
        "d39d4416bac0568be54eb2c90c685542be28784e7d613fb2f60a084b919abd55",
    "modules d21-3-1 --k -3/4 --json --ledger":
        "eece7477c51b7e149f840b9f09208a4b231fdf0ca56ea21fb8d502bd9d71adc2",
    "modules d21-3-1 --k -3/4 --affine --json":
        "0c12f2dd387b0d4a02cca9617fcb9545405ec007a48ce11dfb5e8d79c05c06b4",
    "modules d21-3-1 --k -3/4 --ledger":
        "55e7ce98fe5541f8e44448c07b4adf74e39e8ff332ebb6ef355ce0bf99ac30e9",
    "modules d21-3-1 --k -3/4 --affine":
        "0c3dfffe38ac9f6c57ed93dd60d9390f90f48d01dc71bb098333678a7cde4ee6",
    "modules d21-3-1 --k -3/2 --json --ledger":
        "2aeee197c8537c994500d24d07cbb228cf45a1420896226466b5ac7d0718c123",
    "modules d21-3-1 --k -3/2 --affine --json":
        "93eb9b5f9fa35869ebd0dba9730f650af5b55dca1be4f463ddde12d6bc50557e",
    "modules d21-3-1 --k -3/2 --ledger":
        "173eac9328fb21cae0913532ccf48a3b98f758ccf6881c211fb8198883d4f8b2",
    "modules d21-3-1 --k -3/2 --affine":
        "2b12e2cf6a094331c9403e906772dbbb86a0cc8cb7dc9fea29e5f4302746b856",
    "range d21-3-1 --k -3/4":
        "a3af9b9823a8d9c08ddef2c15844dc325c5531f1854baabe519cf64f6d278e71",
    "range d21-3-1 --k -1/3":
        "79821a0543cdb7e28916e3a24cc0cec45d31faa6b027e8a1ef77c78aa4f3bea7",
    "modules d21-3-2 --k -6/5 --json --ledger":
        "b19aa1b8c8d25617c2b4da2a2662afdd322d8ebb1d1d3b26c049f914fb4b36d0",
    "modules d21-3-2 --k -6/5 --affine --json":
        "3048511c79694aec71fd299a6074b19ecd5ea9b5a50acb557559d9c1ed144f15",
    "modules d21-3-2 --k -6/5 --ledger":
        "dcc4bea86a42899d804203c1deb4e2a6a06d752a299a710e91d2e183176370a8",
    "modules d21-3-2 --k -6/5 --affine":
        "62ae4efd8d7ab9c91b5ca9d9d12edc134a391b268cdd53a4b1ba41803ff69124",
    "modules d21-3-2 --k -12/5 --json --ledger":
        "0df514c52ea0bb17b1e78484a453d6f70bf94ee70aa1fcb4f742dbd09d35dbb4",
    "modules d21-3-2 --k -12/5 --affine --json":
        "33f5c32b10830ce6fc885ee7d254025526c7e796d13f11514e379de0fb5fcfab",
    "modules d21-3-2 --k -12/5 --ledger":
        "464bb2e08255214e73bcb9278908dd95eb667a82f9de317a67cfef6b5dc488ff",
    "modules d21-3-2 --k -12/5 --affine":
        "987d749aba2522b66bc18de07030ddcd4361a44fbc54ebcdd9e199a2ed83d160",
    "range d21-3-2 --k -6/5":
        "cb4d3852adff4e32f75d85e5005360636e171f92308bd2991cd6f67f4e5267cc",
    "range d21-3-2 --k -1/3":
        "8c63dded2a9c1f1cab6cf9d5f36eb749e9d1db64ac8b81d14e9224c1984d7ad0",
    "modules d21-5-2 --k -10/7 --json --ledger":
        "bac7cf96d61889039b0af348e33fe64ca4ad6ae457917a80416bbc68b9d2ca81",
    "modules d21-5-2 --k -10/7 --affine --json":
        "f0a0f3160909730719f5a7a1b9f0e7046b69f2fb3b37e41fbf976eb8fc6ab4d4",
    "modules d21-5-2 --k -10/7 --ledger":
        "5c312ada76855f1e40faf843553dd2041abecf622d4961679d3803c6cc1f817f",
    "modules d21-5-2 --k -10/7 --affine":
        "91713b33cd552e5c977d96eb9fbe8f60f58c5ec51a3a26abe578700f40b4d3fa",
    "modules d21-5-2 --k -20/7 --json --ledger":
        "c0d156944607665ee6fd944de1d3b75928a7a2203a7671bb26bfcf91f25c7fcd",
    "modules d21-5-2 --k -20/7 --affine --json":
        "9b089f3400edd08c7886dcf01d00b0e278207168b85061fab3f2ca741a825acb",
    "modules d21-5-2 --k -20/7 --ledger":
        "510230f6f8fecb70f63b505efcfbd2cd95bf9a79b1a4f74628240fb44be13f65",
    "modules d21-5-2 --k -20/7 --affine":
        "1846b22e9bfd7390175531d2739437cb0a9b0e96c0537c2918a91b51c567ce95",
    "range d21-5-2 --k -10/7":
        "80dce756bb46cbf88206d3248d0580af84435d8045be3c33db00f282eb03195c",
    "range d21-5-2 --k -1/3":
        "86a1c6781acb3fb692bdd79e1e77770a8441457d68d743c2d9c1a5999e0b658f",
    "modules d21-5-3 --k -15/8 --json --ledger":
        "3062e8a83263a89f75f987e4d782811e7a4917128da5aee9a22ff9a0f3d535cb",
    "modules d21-5-3 --k -15/8 --affine --json":
        "c0840e6ae56f04906604e1e281b4016280295baa4ff4b73cd5a7ed5492b0f552",
    "modules d21-5-3 --k -15/8 --ledger":
        "1ea10138524f988a2e91e87702776cf687a4a87d20c6e73f36385781cf87a3ae",
    "modules d21-5-3 --k -15/8 --affine":
        "a2609f13068faaed943361c5261004dfbc131eedb1c58d518844be60cfc33de7",
    "modules d21-5-3 --k -15/4 --json --ledger":
        "8edcd542ffbbf7478faf85495015eed87611eb539eea5a115eb60ce39ed96196",
    "modules d21-5-3 --k -15/4 --affine --json":
        "d6ab083d6354a7c5f2e5af51b5b6f89b21331f05c87ab7a80954b85d99ec5069",
    "modules d21-5-3 --k -15/4 --ledger":
        "85c505e6f5445989b574a8f5c9cfcd4cd8b63dbc1119b1543dc0771823234589",
    "modules d21-5-3 --k -15/4 --affine":
        "7430f5b0945ca45e9ed86346a06d54ca741836213e4dddb91de5c7037e6fc842",
    "range d21-5-3 --k -15/8":
        "241898c58e5aa77f8f5718f106fabd15cc0498e273120f6db2b5223a1d7eee2b",
    "range d21-5-3 --k -1/3":
        "2570a8bb5040be02bcffec1a3035f744eeee8167c65278fd1da0dc239d1b2dd9",
    "modules f4 --k -4/3 --json --ledger":
        "01acda943a4b8a9f35fe7aa559f6aee3983ea2f73268285deba5e7a328e4925c",
    "modules f4 --k -4/3 --affine --json":
        "01867ca9415d6cb8685b77ddd258f00a4b469e6e6312e83f7ad7f60e532649f5",
    "modules f4 --k -4/3 --ledger":
        "a24d5bf3d3935305be0af15ff16bfc00850ff357d67852a16b4019f0f1b32998",
    "modules f4 --k -4/3 --affine":
        "0002c551b2d9628fc22abbf8a73766ccff256a973b5558911738401be82e0d9b",
    "modules f4 --k -2 --json --ledger":
        "e23c7333b8d5ad0d70df4af8afdf4d45bd658ab94aa2676405fdc8abedae96c3",
    "modules f4 --k -2 --affine --json":
        "0df8bfd4dc43c770136e230b6a8cbadcb9c8bbc095f31492bd8a7bebbc2c2fa9",
    "modules f4 --k -2 --ledger":
        "3c412c916d0aaf5eb263962cb8a0a5a9c5b08c45934d2f5622bdd9c52f2ad995",
    "modules f4 --k -2 --affine":
        "3ce8abb0f6581f1d239efd7b6772079d9840397fbb7dd0b44bd662189f7b7b5c",
    "range f4 --k -4/3":
        "879ba8b693fe137c0bf0b38e10026451bec00eeda3f11843f7c827c8af2b2303",
    "range f4 --k -1/3":
        "db2627d5068ee76e597bbd6bc0b835e2ac4073699ec34f37b6711a32b8105b6a",
    "modules g3 --k -3/2 --json --ledger":
        "9cac45b49cfe1e2a2c2a6a57eb007a6f05b2ab64a73121d0da75b848a4449660",
    "modules g3 --k -3/2 --affine --json":
        "b705819d414f7ab8a1d2dd530435f237d11ed0592311207ef135cf5ba5f6272b",
    "modules g3 --k -3/2 --ledger":
        "9d56c109309754eb459f130fcf62b938c026958684dcb4028d97ad0eb1e0176c",
    "modules g3 --k -3/2 --affine":
        "36d84adc5663d673461741f34eae7340ef8e6b508a002dc2ce01394775954c17",
    "modules g3 --k -9/4 --json --ledger":
        "5e7e813bfa93bfa4f1c2100a1f407e7913726f4322fcfc1524dfbdd656b90f5e",
    "modules g3 --k -9/4 --affine --json":
        "3424bfc2f1f5e2eaa843caa1f85dc18c13fa2788c74466515b9643a0258c5b26",
    "modules g3 --k -9/4 --ledger":
        "9d37b2213abf1320636f1f142dafa054d60380647311f08dcd453da1fa1d9c83",
    "modules g3 --k -9/4 --affine":
        "a0ed4d8db27faa715b2dcddc170d13e5209213dca16ae043676731b05943729a",
    "range g3 --k -3/2":
        "92ee9ee388e1eabceac4245ce3eafb69f3cde69fe48b91ef7c06baf5f22d81c4",
    "range g3 --k -1/3":
        "031e1f5922fae90d5e8ea3f542c4e1c4a595a70371ba5b83d3e7ccf683cc3dce",
    "modules spo2-16 --k -1 --json --ledger":
        "4622be31a452d5967565d3b824989aae738ec67110f3cfc8ed20a2ac61421a93",
    "modules spo2-16 --k -1 --affine --json":
        "a7e15588f800d03281a17ead3d599dd8d474c6c3fa7b1438ab3c288899343952",
    "modules spo2-16 --k -1 --ledger":
        "f1acb0a2683029c51feb25e640c7e28869ccd307328cbdecea1480b18e4830ce",
    "modules spo2-16 --k -1 --affine":
        "795143c04c7fb67bfc6a494b666e197a0070a9b2b9f178c5a8901dd501a9c603",
    "modules spo2-16 --k -3/2 --json --ledger":
        "d2b5b79efca527c7249cddb91043ba793cd0ae035b4a28e57f48c948ce5df6ec",
    "modules spo2-16 --k -3/2 --affine --json":
        "579841cf60ad5d8a2b93023504942c2967f826a4cd7382076074182b1277b213",
    "modules spo2-16 --k -3/2 --ledger":
        "2cc3f854d1d4aad1e11d1165d2eba314ab4c85572b4b40d1c73fa97f29fb1e18",
    "modules spo2-16 --k -3/2 --affine":
        "f601d4437966f0d3afaf083ef6349c1c015f9db53cc51e770e2a4fa582804378",
    "range spo2-16 --k -1":
        "f2ea76b2f368eaa0f7fd83daca2e4d59ea26ee9d91c13637191bd5f56c25cbae",
    "range spo2-16 --k -1/3":
        "b2d590a47d98a4bb34a92a81a659f10d9bcb2cee25bc84e1791723bce9ccbf0b",
    "modules f4 --k -82/3 --json":
        "94d9eb1900ada5ba6e0dcd152fc2e305e4ef29d9e1a0d3f22c980ee9c939b4ed",
    "modules f4 --k -82/3":
        "7aef6a96867c59788926f4c78708957b617cf519bb6e0ae306e3c20bd83d6d72",
    "modules f4 --k -82/3 --affine":
        "1eec660e4721b741e87c9917fc5705cd9aef37b6efd358d862fe04451795a21c",
    "modules f4 --k -82/3 --affine --json":
        "8cd469e4f41e9228244d9869539e433dfd37cdec8521dbb6e74304f77b3261f3",
    "modules spo2-16 --k -7/2 --json":
        "d85ab704d1b156217aa5fd2d57eca3a1580330023fe65327b6854edefc146c0c",
    "modules spo2-16 --k -7/2":
        "0a61738e74b96dbf27d1161d21e64f5a2e0b7c8f50e0e52455dc12e3dabdb129",
    "modules spo2-16 --k -7/2 --affine":
        "9f2e37dba29944a7a917ce68d14f444cc2cea6da998f68e2f649c9455f02be77",
    "modules spo2-16 --k -7/2 --affine --json":
        "715f70030206b6961bf92b727bc574fadc98b5a627ba5b29d2160fdb26c9df18",
    "modules spo2-8 --k -13/2 --json":
        "98e29cb64d5ec7c11c47bee0ac264a8906f814ad25cbc93625010c80e4b035e7",
    "modules spo2-8 --k -13/2":
        "cbcc9fa6e7c3911225b64e381f713b7f38b64a81af48f90916077e817da6ba82",
    "modules spo2-8 --k -13/2 --affine":
        "3d4df6777ea3cf17307363edff2b64efd94cbe4a0da27ca263c677b21262cd48",
    "modules spo2-8 --k -13/2 --affine --json":
        "31a038caf3b1f1303cba8bbf9c5eba1e86b9745fd6cc9910a35e5af6a3c5f296",
    "modules d21-5-3 --k -75/8 --json":
        "b891f515d557020ea7e722a8944417c2e0420e2631b79fe76bbc01becca042d4",
    "modules d21-5-3 --k -75/8":
        "a908a589cf8bb9c2a76a667982baed77488602014430ac967a14493a94649559",
    "modules d21-5-3 --k -75/8 --affine":
        "238a18fb96ccc9bba7a2fdb389689b6203843f055b5b8efa1ee822d25efa2dc0",
    "modules d21-5-3 --k -75/8 --affine --json":
        "fb10cab7ac4f92090a2cac21aae941b9baaf3b72030196d6ae507ce75620a166",
    "selfcheck --json":
        "10fac6e29070d0d472747d88e520d56f69c2e46fdfe99e9f70a8bed0b372d6f0",
    "selfcheck --all --json":
        "3797492d935738157ae699663fab14f2372b2673989651347cb022bef3c93302",
}


def test_golden_covers_the_argv_grid():
    assert list(GOLDEN) == golden_argvs()


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_output_is_byte_identical(argv):
    assert _digest(argv) == GOLDEN[argv]


if __name__ == "__main__":
    print("GOLDEN = {")
    for argv in golden_argvs():
        print(f'    "{argv}":\n        "{_digest(argv)}",')
    print("}")
