"""Synthetic workload generators: uniform ski demand and heavy-tailed job lengths.

Reproducibility contract: every generator is a deterministic function of its
arguments and the generator passed in, and checks none of them (the sweep
configs do).  `derived_rngs` builds one stream per trial key by hashing
(master seed, key), so trials can run in any order or in parallel without
changing a single draw: it runs numpy's `SeedSequence` hash (O'Neill's
seed_seq mixing) on uint32 arrays over a chunk of keys at once and yields the
generators ``default_rng(SeedSequence((master_seed, key)))`` would, bit for
bit, which the tests check against the installed numpy.  `ski_trial_draws`
goes one step further for the ski sweep: from the same seed states it runs
PCG64 and numpy's bounded-integer, normal and uniform draws on arrays, and
the few keys that leave their fast paths on a scalar PCG64 stream, so a whole
block of trials gets the draws its generators would give without building
one or importing ``numpy.random``.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, List, Tuple

import numpy as np

# Master seed of the sweeps and of the verification grids unless one is given.
DEFAULT_SEED = 271828

# numpy's SeedSequence constants: pool words, the two hash multiplier chains,
# the mixing multipliers and the xorshift; keys are one uint32 word each.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier, also as (high, low) uint64 limbs, and the
# masks and shifts its arithmetic on two limbs uses.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_LOW32, _SHIFT32, _ROT_SHIFT = np.uint64(_MASK32), np.uint64(32), np.uint64(58)

# numpy's ziggurat tables for ``standard_normal``, copied as they lie in its
# libnpyrandom, little-endian: ``fi_double`` (the density exp(-x^2/2) at each
# layer's edge, fi[0] = 1), ``wi_double`` (layer widths w) and ``ki_double``
# (fast-path bounds k).  One output word gives layer idx in its low byte, then
# a sign bit, then 52 bits rabs; numpy returns +-rabs * w[idx] at once iff
# rabs < k[idx], which layer 1 never is.  The tests pin all three tables
# against the installed numpy.
_ZIG_F, _ZIG_W, _ZIG_K = np.frombuffer(bytes.fromhex(
    "000000000000f03f87f079c96a44ef3f15a96c5b54b7ee3f77f027e0113fee3f95de04a76fd3ed3f"
    "f2bc57069270ed3fdc19a1784914ed3feb2da7a833bdec3f7f78a9ce5e6aec3feabaeed91c1bec3f"
    "82dce14eebceeb3f52f58f3a6585eb3f10dd34823a3eeb3fa2e86c3f2af9ea3f04257af1feb5ea3f"
    "e1c950d58b74ea3f0faff5fdaa34ea3fd81f65ee3bf6e93f8106248d22b9e93fc17a6157467de93f"
    "477a1bc29142e93f4f7131bdf108e93fa80ae64f55d0e83f02dfba48ad98e83facbc37fceb61e83f"
    "6ecf560f052ce83fcbe2204bedf6e73f58689c779ac2e73fd5b0a03c038fe73f56d870071f5ce73f"
    "126d3ff4e529e73fee7aeaba50f8e63f895a639e58c7e63f2a3b515ef796e63f23e3922a2767e63f"
    "180c5598e237e63f652680982409e63f6aff4a6fe8dae53f895cc8ac29ade53f8f8d4c26e47fe53f"
    "469e8df01353e53fd56c655ab526e53f67b620e8c4fae43fc04e494f3fcfe43f7852dc7221a4e43f"
    "1250df5f6879e43f7936494a114fe43fe35f358a1925e43f825b58997efbe33fa331af103ed2e33f"
    "0ecd62a655a9e33fd500da2bc380e33fe950f58b8458e33f353a70c99730e33fef3864fdfa08e33f"
    "ee3bea55ace1e23f4a95d714aabae23f15cd938ef293e23fed040529846de23f84db905a5d47e23f"
    "f2f72fa97c21e23f209692a9e0fbe13f699954fe87d6e13f11d13f5771b1e13f503c9b709b8ce13f"
    "da3986120568e13f9ca95e10ad43e13f381f3148921fe13f135932a2b3fbe03fa042411010d8e03f"
    "aed9708da6b4e03f815d991d7691e03f363cf0cc7d6ee03f2e3fa6afbc4be03f2a828be13129e03f"
    "c4cab885dc06e03fa1bd7b8c77c9df3fca00a9a79d85df3ff37a2fcb2942df3f958f7e711affde3f"
    "541fbd206ebcde3fc5c34e6a237ade3f859b5fea3838de3f093a7647adf6dd3fb1560b327fb5dd3f"
    "33de2664ad74dd3f801002a13634dd3f6d5baeb419f4dc3f48a8c07355b4dc3fc7d700bbe874dc3f"
    "b82c1d6fd235dc3f176a617c11f7db3f916d71d6a4b8db3f1b1307788b7adb3fca31b362c43cdb3f"
    "5285a19e4effda3f9e5a5f3a29c2da3f80d8a44a5385da3f4dc020eacb48da3f3e844639920cda3f"
    "df931e5ea5d0d93fc6c018840495d93f939fe0dbae59d93f17cb339ba31ed93f15f1b9fce1e3d83f"
    "8891de3f69a9d83fb65aaca8386fd83fd90daa7f4f35d83f11d9b811adfbd73fb014f4af50c2d73f"
    "eb5292af3989d73fedb1c7696750d73f4c61a93bd917d73faa4c12868edfd63f21de88ad86a7d63f"
    "e2cb251ac16fd63f15e57b373d38d63fc8d28074fa00d63f44c27643f8c9d53fbeeed6193693d53f"
    "00013d70b35cd53fed3b53c26f26d53f926dbf8e6af0d43fa29c1057a3bad43fd46aad9f1985d43f"
    "fe24c3efcc4fd43f197a35d1bc1ad43fdbd28ed0e8e5d33fae43f17c50b1d33f79130868f37cd33f"
    "9ed1f925d148d33f2ff65a4de914d33f660721773be1d23fdd3f963ec7add23f1eb14d418c7ad23f"
    "89de171f8a47d23f9eccf779c014d23f168118f62ee2d13f50f0c239d5afd13fe85454edb27dd13f"
    "67ee34bbc74bd13f2324cf4f131ad13fc409875995e8d03fda42b2884db7d03f3643908f3b86d03f"
    "d9e942225f55d03f7e74c7f6b724d03fc593df898be8cf3f3532b88c1088cf3fd298e96cfe27cf3f"
    "449cc9a454c8ce3fdd3c28b21269ce3f84714516380ace3f0a90c755c4abcd3f4f51b2f8b64dcd3f"
    "cc6f5e8a0ff0cc3f53df7199cd92cc3f479dd8b7f035cc3fa118be7a78d9cb3faa31877a647dcb3f"
    "3ad1cc52b421cb3f071857a267c6ca3f7e26190b7e6bca3f3d7e2d32f710ca3f5afed2bfd2b6c93f"
    "277c6a5f105dc93f69fa74bfaf03c93f5b819291b0aac83f389a818a1252c83f75711f62d5f9c73f"
    "23a368d3f8a1c73fa6b57a9c7c4ac73f1647967e60f3c63f5cf2213ea49cc63f9cf1ada24746c63f"
    "f983f8764af0c53f6c1df388ac9ac53f3568c8a96d45c53fc11fe3ad8df0c43f2dcef56c0c9cc43f"
    "d57503c2e947c43fae31698b25f4c33feed7e8aabfa0c33f88abb405b84dc33f652a7c840efbc23f"
    "1a077a13c3a8c23fb75e83a2d556c23f343c18254605c23f427d759214b4c13f632da8e54063c13f"
    "b96ea21dcb12c13fba09523db3c2c03f85bfb84bf972c03f2a7d06549d23c03f2c226bcb3ea9bf3f"
    "1c0e5229ff0bbf3f4ba59af27b6fbe3f8fe87661b5d3bd3fe591bdb9ab38bd3f0a743b495f9ebc3f"
    "15100b68d004bc3f33e2f278ff6bbb3f33f6cae9ecd3ba3f8662ea33993cba3f195b9ddc04a6b93f"
    "aba0a4753010b93f5228bf9d1c7bb83fd6ef3e01cae6b73f7611aa5a3953b73f4c4a69736bc0b63f"
    "184d8524612eb63fa46674571b9db53fae2bfa069b0cb53f13221b40e17cb43f869a2623efedb33f"
    "703ed9e4c55fb33f11319bcf66d2b23f910ddd44d345b23f7d8997be0cbab13f9d17f2d0142fb13f"
    "2596152ceda4b03f97e4309e971bb03f356e6c2b2c26af3f8151b247d516ae3f62f1adfe2e09ad3f"
    "2c2a280f3efdab3f705f389007f3aa3f635529f990eaa93fabb5682ae0e3a83f1e27af77fbdea73f"
    "64d098b3e9dba63fd4adf23cb2daa53f5d27110e5ddba43fcbee98cef2dda33f97f43de87ce2a23f"
    "bc6a1f9f05e9a13f1180962e98f1a03fc4a518d781f89f3f758c82db1a129e3f1a09cd8319309c3f"
    "f8eb224e9f529a3f0ac100b6d179983f82bf0bf4daa5963f64b0fbf2ead6943f135eab8d380d933f"
    "123060340349913f49dd724f2a158f3fac8f4f278da48b3f78a48d0d0441883fe0cf1a4296eb843f"
    "922f952992a5813f3768ecf860e17c3f5db80cd9a89e763ffdb1b0031f8a703f67b0c1439f5f653f"
    "0ff7b9b605a6543f79d915783b49cf3cc6f6fde30b8d8b3cb45b2c3caf50923c613b4438b97c953c"
    "0ca72fe8fc01983cbcd04c2e0c239a3cf761382f4d009c3c7472745a2fac9d3cc3d54c2d48329f3c"
    "adbb8e27324da03c435d023b05f5a03c77364197a692a13cf51a7a8fa227a23c80d863382eb5a23c"
    "f59157c03f3ca33c2fb1a2c19ebda33c559bff8def39a43ca7fe3d36bbb1a43c74d31a627525a53c"
    "96ce07a78095a53cea7ed9cf3102a63c3d7ca361d26ba63c70050092a2d2a63ca6f846d3da36a73c"
    "772ab310ad98a73c43f546ad45f8a73c770a4353cc55a83c9a767b9e64b1a83c98cf4ea92e0ba93c"
    "ea1e2c824763a93c46c5388ec9b9a93c2ca7a4dccc0eaa3c59cd776d6762aa3c3016106eadb4aa3c"
    "9c6c136db105ab3c297a42878455ab3c3a9f528e36a4ab3c3282bf2ad6f1ab3cf34e59f9703eac3c"
    "613b32a5138aac3c8b2672fec9d4ac3c48b7800e9f1ead3c101fe4299d67ad3cc3b82300ceafad3c"
    "5376f1a93af7ad3cfeedd2b5eb3dae3c006f7a33e983ae3cce82f9bd3ac9ae3c2662f084e70daf3c"
    "88f6d854f651af3caed7879e6d95af3cac2efa7d53d8af3cec3442e0560db03c9a8f39f5402eb03c"
    "fca5169eea4eb03c10a0725b566fb03c0bf47190868fb03c1361bc847dafb03c7fcc4b663dcfb03c"
    "6b08164bc8eeb03cee159532200eb13cbe0f3107472db13c41918e9f3e4cb13c1e20c4bf086bb13c"
    "34da781aa789b13c886dee511ba8b13ccb2af8f866c6b13c2ed4e0938be4b13c9fa040998a02b23c"
    "e9c6c4726520b23c1fc3e97d1d3eb23cfb6ba90cb45bb23c7fd31d662a79b23c1bd719c78196b23c"
    "da2eb862bbb3b23c53b8e162d8d0b23c8ea9cbe8d9edb23cd7486e0dc10ab33c30b9f4e18e27b33c"
    "a15e26704444b33cd552cabae260b33c6a5805be6a7db33c64b2b26fdd99b33c033db8bf3bb6b33c"
    "e01d569886d2b33c835a72debeeeb33c749ee071e50ab43c5d74a62dfb26b43ca4303ce80043b43c"
    "5dc7ca73f75eb43c36c3669edf7ab43c2f8f4832ba96b43c5d4102f687b2b43cdc11b3ac49ceb43c"
    "05a6381600eab43c62555eefab05b53c5a8b0af24d21b53c4f666ad5e63cb53cc8b21b4e7758b53c"
    "785f550e0074b53c14850ec6818fb53c591b2423fdaab53c3d737dd172c6b53cd38c2f7be3e1b53c"
    "385e9fc84ffdb53cc31fa360b818b63ca2b0a2e81d34b63c0b26b704814fb63c7296c957e26ab63c"
    "3731b1834286b63cb1b25029a2a1b63cbb43b3e801bdb63c52d3286162d8b63c54f86131c4f3b63c"
    "eb688bf7270fb73cc61469518e2ab73cdcee70dcf745b73c1f73e5356561b73c49f4effad67cb73c"
    "93bdbac84d98b73c09148b3ccab3b73cfb22dbf34ccfb73ce7de738cd6eab73c1fea86a46706b83c"
    "7686c8da0022b83c159f89cea23db83cbdf5d11f4e59b83cc57e7a6f0375b83c2df7475fc390b83c"
    "43c005928eacb83c9c0ca1ab65c8b83c276a445149e4b83c8fb573293a00b93c478328dc381cb93c"
    "fc0aef124638b93c8aa203796254b93ceed570bb8e70b93c312a2e89cb8cb93cbf993f9319a9b93c"
    "2cd9d58c79c5b93c11746f2bece1b93c4ad2fa2672feb93c9236f9390c1bba3c5bc8a221bb37ba3c"
    "88bb0b9e7f54ba3ca4a94a725a71ba3c3d31a0644c8eba3c08f19f3e56abba3ccef55acd78c8ba3c"
    "36b38be1b4e5ba3c1aa1c34f0b03bb3c5b989af07c20bb3c000ce0a00a3ebb3c033dce41b55bbb3c"
    "27893fb97d79bb3c3cf7e5f16497bb3c6e2585db6bb5bb3ca2c02e6b93d3bb3c83ae819bdcf1bb3c"
    "a016ec6c4810bc3c2d7af0e5d72ebc3c1c0d6e138c4dbc3c0587ec08666cbc3c17a6ebe0668bbc3c"
    "aba236bd8faabc3c90d63bc7e1c9bc3c37e068305ee9bc3c6e8f8b320609bd3c20ef3710db28bd3c"
    "47c63315de48bd3c23f1e7961069bd3ca5fbd7f47389bd3c706e209909aabd3c0e49fcf8d2cabd3c"
    "372e5295d1ebbd3c1cd249fb060dbe3cf646eac4742ebe3c88d1c1991c50be3c25fe972f0072be3c"
    "0abf2a4b2194be3c086ff7c081b6be3c3aa7107623d9be3ca9ec016108fcbe3c2153c28a321fbf3c"
    "6d4db70fa442bf3c6801c9205f66bf3c82978904668abf3cbf227118bbaebf3c85e72fd260d3bf3c"
    "0bf618c159f8bf3c75a0d347d40ec03c47c98f02a821c03cab02a983a934c03cc7f53e4eda47c03c"
    "7eb3adf63b5bc03c6826a723d06ec03c172e638f9882c03c54a2e8089796c03cc4c07175cdaac03c"
    "48d4eed13dbfc03c303daa34ead3c03c936511cfd4e8c03cb69fa6effffdc03c417020046e13c13c"
    "355dbb9b2129c13c6d09c4691d3fc13c3b2e60486455c13cf3ee9d3bf96bc13c6112d274df82c13c"
    "aceb4e561a9ac13c8e2f7f77adb1c13c94a671a99cc9c13c39aee4fbebe1c13c01d9e2c29ffac13c"
    "81cc049dbc13c23ceed36f7a472dc23c249caca44547c23ce05876c7bc61c23c2e59a8fab27cc23c"
    "780e77cd2e98c23c520a2a5337b4c23c97db9631d4d0c23cf578a9b10deec23ceeae56d2ec0bc33c"
    "a3a4685e7b2ac33ca312ae05c449c33c40a8337ad269c33c0a415692b38ac33cfa88ae7075acc33c"
    "a60417b327cfc33c75f460aadbf2c33cdae5b99ca417c43c945e5415983dc43c153aa744ce64c43c"
    "bc439c75628dc43c275a6b9d73b7c43c0289cd0d25e3c43c41ace9539f10c53c427e3a521140c53c"
    "1be44aa9b171c53cd98d718bc0a5c53cfed03a248adcc53c4c1e86cf6916c63cea6a007bce53c63c"
    "c3e59fbe4095c63c32e2098d6bdbc63c347a5ff02827c73c730609569579c73c8cced6f42dd4c73c"
    "34f229050339c83c147caabf0fabc83c96446f94e02ec93cab574001eecbc93c5a779478dc8fca3c"
    "b1fd78381f98cb3c33ad0982b43bcd3c6aef25803df30e000000000000000000a8c6fb98be080c00"
    "4281bdfa54a30d00eaeec17ef6510e007ef7d3e955b20e00b9ca7e814bef0e00aa44fa0a47190f00"
    "18cbff61ed370f005c256195464f0f0096a31be4a5610f00a49653757a700f009a4428ecb27c0f00"
    "d357630cf1860f00de258357a68f0f00dad04dc724970f0009f5db07a99d0f0074fa81f560a30f00"
    "f84b5bde6fa80f00dc54d360f1ac0f000fb91867fbb00f00c674538d9fb40f0077fe6623ecb70f00"
    "0ee5a1e9ecba0f00ed0b049dabbd0f00576cff6030c00f0048a2371082c20f00d15be27aa6c40f00"
    "31ee7a97a2c60f00a49628a97ac80f0085de4b5e32ca0f001a2302e9cccb0f00c439f8124dcd0f00"
    "99ec8f4db5ce0f0030c91dbf07d00f00e6c4d64d46d10f0050f4e2a872d20f001ec9f04f8ed30f00"
    "78b490999ad40f00530f92b898d50f00ec998ec089d60f0032e8c8a96ed70f00e8087b5448d80f00"
    "8c2cad8b17d90f00d2ada707ddd90f008c5e107099da0f00202ec05d4ddb0f00d0fc5b5cf9db0f00"
    "7d9ab9eb9ddc0f009d7218813bdd0f00902f3488d2dd0f00649f366463de0f004e518d70eede0f00"
    "2eb4a60174df0f0040ed9965f4df0f00f224bce46fe00f0058a225c2e6e00f004cb8283c59e10f00"
    "993fbc8cc7e10f00aa1cdbe931e20f00911bda8598e20f008641b58ffbe20f004a8d55335be30f00"
    "2a00d099b7e30f007fad9ee910e40f003477d44667e40f005c094cd3bae40f002495d2ae0be50f00"
    "78bc4ef759e50f001212e4c8a5e50f008986133eefe50f007810d96f36e60f0078d5c6757be60f00"
    "aa111e66bee60f00f2f4e555ffe60f0002a700593ee70f00399e3e827be70f00a27070e3b6e70f00"
    "4342778df0e70f008cf0539028e80f003a1735fb5ee80f00640884dc93e80f00bccef041c7e80f00"
    "f64e7d38f9e80f001d9b87cc29e90f00ea88d30959e90f00a29a93fb86e90f00664871acb3e90f00"
    "d5b69426dfe90f007ce6ab7309ea0f00a466f19c32ea0f002c9532ab5aea0f001a74d5a681ea0f00"
    "f01cde97a7ea0f0020d9f385ccea0f003ce66578f0ea0f0013ec2f7613eb0f004a2afe8535eb0f00"
    "b46231ae56eb0f00fa84e2f476eb0f001420e65f96eb0f007c9dcff4b4eb0f00d049f4b8d2eb0f00"
    "3e2e6eb1efeb0f00e8bd1ee30bec0f00155ab15227ec0f00d3af9d0442ec0f0096f129fd5bec0f00"
    "f4ee6c4075ec0f00b40c50d28dec0f00121f91b6a5ec0f00fe27c4f0bcec0f0015fb5484d3ec0f00"
    "b3c88874e9ec0f00b7917fc4feec0f002885357713ed0f000349848f27ed0f004c2f24103bed0f00"
    "6e58adfb4ded0f00ddc3985460ed0f00e84f411d72ed0f0082a9e45783ed0f00c82ca40694ed0f00"
    "04b7852ba4ed0f00b46a74c8b3ed0f00526641dfc2ed0f00526ea471d1ed0f00d38a3c81dfed0f00"
    "8099900feded0f0014d40f1efaed0f00c44b12ae06ee0f00065ad9c012ee0f00e00690571eee0f00"
    "24654b7329ee0f00bce40a1534ee0f003c9bb83d3eee0f00f48229ee47ee0f0086b01d2751ee0f00"
    "417f40e959ee0f002eb4283562ee0f00f197580b6aee0f007a073e6c71ee0f00827b325878ee0f00"
    "ba067bcf7eee0f00b24a48d284ee0f004363b6608aee0f0051c8cc7a8fee0f00da257e2094ee0f00"
    "ea29a85198ee0f005c48130e9cee0f00f47372559fee0f00aecc6227a2ee0f00ac426b83a4ee0f00"
    "712dfc68a6ee0f00fad66ed7a7ee0f000afa04cea8ee0f003b33e84ba9ee0f0010642950a9ee0f00"
    "5e07c0d9a8ee0f00547689e7a7ee0f00241d4878a6ee0f00839ea28aa4ee0f00dae4221da2ee0f00"
    "2420352e9fee0f002eaf26bc9bee0f00e4f224c597ee0f003a0a3c4793ee0f00167555408eee0f00"
    "7a9c36ae88ee0f00fd3d7f8e82ee0f0088b8a7de7bee0f00ff37ff9b74ee0f005ebda9c36cee0f00"
    "7e009e5264ee0f008828a3455bee0f00b6574e9951ee0f00cf06004a47ee0f00502ce1533cee0f00"
    "d82ae0b230ee0f000582ad6224ee0f005a3cb85e17ee0f0047142aa209ee0f00cc49e327fbed0f00"
    "6c2176eaebed0f007e0422e4dbed0f00d339ce0ecbed0f00f42c0464b9ed0f00c938e9dca6ed0f00"
    "8de9377293ed0f0036a8381c7fed0f002bc0b9d269ed0f0000ae068d53ed0f0022a4de413ced0f00"
    "d82f6ae723ed0f0044e62f730aed0f0034fe07daefec0f00b8b70e10d4ec0f00b46e9508b7ec0f00"
    "c13012b698ec0f0078a90d0a79ec0f00fe310ff557ec0f0062c9866635ec0f0035b3b44c11ec0f00"
    "d06f8e94ebeb0f0092b6a029c4eb0f00dc0ceef59aeb0f004285c9e16feb0f009e1fadd342eb0f00"
    "4b2d0bb013eb0f00e9021a59e2ea0f00572299aeaeea0f0026e38e8d78ea0f00e573fdcf3fea0f00"
    "f6d98d4c04ea0f003b562fd6c5e90f00a447a93b84e90f0028471d473fe90f00d6c576bdf6e80f00"
    "e6e8c45daae80f00eab17ae059e80f0040a990f604e80f00c0338248abe70f00a56a1f754ce70f00"
    "02a22a10e8e60f00d8abb6a07de60f007e30389f0ce60f0042f7387394e50f008072977014e50f00"
    "58f436d48be40f00371efdbff9e30f009cb1ee355de30f00fee42f12b5e20f005755990300e20f00"
    "148378823ce10f00b067eec468e00f00aa712bb082df0f00aafe7ec587de0f00fd3bc60975dd0f00"
    "13bf29e546dc0f0082022ef8f8da0f0075bab2e185d90f0004cf48efe6d70f000b65bdad13d60f00"
    "12f0e24901d40f00acc7b4a7a1d10f009e1f7604e2ce0f00b2115ed8a8cb0f00222dcd6ed2c70f00"
    "ed221e2f2bc30f003ab8c08165bd0f00345400c406b60f0074282a5840ac0f009845011e979e0f00"
    "fc1da448fa890f002c30f0f7c5660f004a1c334b5a1a0f00"
), "<f8").reshape(3, 256)
_ZIG_K = _ZIG_K.view("<u8")
# numpy's ziggurat_nor_r, where the base layer's tail starts, and its inverse
_ZIG_R, _ZIG_INV_R = 3.6541528853610087963519472518, 0.27366123732975827203338247596

# Keys whose seed states `derived_rngs` and `ski_trial_draws` derive in one
# pass; bounds their memory.
_RNG_CHUNK = 4096


def _words(value: int) -> List[int]:
    """A non-negative integer as SeedSequence splits it: uint32 words, low first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"master seed must be non-negative, got {value!r}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix with its running constant, which each call advances."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a hashed word into a pool word."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _seed_states(master: List[int], keys: np.ndarray) -> np.ndarray:
    """``SeedSequence((master, key)).generate_state(4, np.uint64)`` per key, as rows.

    ``master`` is the seed's words and ``keys`` a uint32 array; the entropy
    is those words then the key.  Words past the 4-word pool (seeds of 2^128
    and up) are mixed into every pool word after the pool is mixed.
    """
    entropy = [np.full(1, word, np.uint32) for word in master] + [keys]
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(1, np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    out = np.empty((keys.size, 2 * _POOL_SIZE), np.uint64)
    for i in range(2 * _POOL_SIZE):
        out[:, i] = hashmix(pool[i % _POOL_SIZE])
    # uint32 words pair up low word first, whatever the host's byte order
    return out[:, 0::2] | (out[:, 1::2] << np.uint64(32))


class _SeedState:
    """A precomputed SeedSequence state: all PCG64 asks of its seed."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived seed state holds exactly 4 uint64 words")
        return self.state


def _key_array(keys: Iterable[int]) -> np.ndarray:
    """``keys`` as a uint32 array; ValueError unless they are integers in [0, 2^32)."""
    keys = np.asarray(keys if isinstance(keys, np.ndarray) else list(keys))
    if keys.size and (
        keys.ndim != 1 or keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32
    ):
        raise ValueError("keys must be a flat sequence of integers in [0, 2**32)")
    return keys.astype(np.uint32)


def derived_rngs(master_seed: int, keys: Iterable[int]) -> Iterator[np.random.Generator]:
    """``default_rng(SeedSequence((master_seed, key)))`` for each key in order, bit for bit.

    Keys must be integers in [0, 2^32); anything else raises ValueError here,
    not when iterated.  Generators come lazily, their seed states derived
    ``_RNG_CHUNK`` keys at a time.  They cannot spawn children.
    """
    # numpy.random stays out of package import, which would otherwise load it
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedState)
    master, keys = _words(master_seed), _key_array(keys)
    return (
        Generator(PCG64(_SeedState(state)))
        for lo in range(0, keys.size, _RNG_CHUNK)
        for state in _seed_states(master, keys[lo:lo + _RNG_CHUNK])
    )


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """PCG64's LCG step, state * multiplier + inc mod 2^128, on (high, low) uint64 limbs."""
    new_lo = lo * _PCG_MULT_LO + inc_lo
    # high word of lo * _PCG_MULT_LO, from 32-bit halves so no partial sum wraps
    lo0, lo1 = lo & _LOW32, lo >> _SHIFT32
    m0, m1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _SHIFT32
    cross = lo1 * m0 + (lo0 * m0 >> _SHIFT32)
    product_hi = lo1 * m1 + (cross >> _SHIFT32) + ((lo0 * m1 + (cross & _LOW32)) >> _SHIFT32)
    carry = (new_lo < inc_lo).astype(np.uint64)
    new_hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + product_hi + inc_hi + carry
    return new_hi, new_lo


def _pcg_words(states: np.ndarray, count: int) -> Tuple[List[np.ndarray], np.ndarray]:
    """The first ``count`` 64-bit outputs of ``PCG64`` seeded with each row of ``states``.

    A row is the 4 uint64 words a seed sequence gives PCG64: the initial state's
    high and low limbs, then those of the stream number, whose increment is
    2 * stream + 1.  Seeding steps from state 0, adds the initial state and
    steps again; each output steps, then takes XSL-RR of the new state: its
    high limb xor its low limb, rotated right by the state's top 6 bits.
    Returns the output arrays and, for `_pcg_stream` to go on from, the last
    state's and the increment's high and low limbs as (keys, 4) rows.
    """
    init_hi, init_lo, stream_hi, stream_lo = states.T
    inc_hi = stream_hi << np.uint64(1) | stream_lo >> np.uint64(63)
    inc_lo = stream_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + init_lo
    hi, lo = _pcg_step(inc_hi + init_hi + (lo < inc_lo).astype(np.uint64), lo, inc_hi, inc_lo)
    words = []
    for _ in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        mixed, rot = hi ^ lo, hi >> _ROT_SHIFT
        words.append(mixed >> rot | mixed << ((np.uint64(64) - rot) & np.uint64(63)))
    return words, np.stack([hi, lo, inc_hi, inc_lo], axis=1)


def _pcg_stream(state: int, inc: int) -> Iterator[int]:
    """PCG64's 64-bit outputs after the 128-bit ``state``, without end: the scalar
    twin of `_pcg_words`, on Python ints."""
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        mixed, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        yield (mixed >> rot | mixed << (64 - rot)) & _MASK64


def _unit(word: int) -> float:
    """numpy's ``next_double``: the top 53 bits of a word over 2^53."""
    return (word >> 11) * 2.0**-53


def _standard_normal(words: Iterator[int]) -> float:
    """numpy's ziggurat ``random_standard_normal``, reading 64-bit words from ``words``.

    A word off the fast path (`_ZIG_K`) is drawn from the base layer's tail
    when its layer is 0 and is otherwise kept iff a uniform height in its
    layer's wedge falls under the density; failing that, the next word starts
    over.  The tail's sign is bit 8 of rabs, as in numpy.
    """
    while True:
        word = next(words)
        layer, rabs = word & 0xFF, word >> 9 & (1 << 52) - 1
        x = rabs * _ZIG_W[layer]
        if word & 0x100:
            x = -x
        if rabs < _ZIG_K[layer]:
            return x
        if layer == 0:
            while True:
                xx = -_ZIG_INV_R * math.log1p(-_unit(next(words)))
                yy = -math.log1p(-_unit(next(words)))
                if yy + yy > xx * xx:
                    return -(_ZIG_R + xx) if rabs >> 8 & 1 else _ZIG_R + xx
        high, low = _ZIG_F[layer - 1], _ZIG_F[layer]
        if (high - low) * _unit(next(words)) + low < math.exp(-0.5 * x * x):
            return x


def _slow_draws(words: Iterator[int], span: int, threshold: int, uniforms: int):
    """One key's ski trial draws as numpy's C code makes them from PCG64's ``words``.

    Lemire's bounded integer on {0..span-1} retries while its leftover is
    below ``threshold``, reading the buffered high half of a word before the
    next word; `_standard_normal` reads whole words, skipping a buffered half.
    """
    halves = (half for word in words for half in (word & _MASK32, word >> 32))
    scaled = next(halves) * span
    while scaled & _MASK32 < threshold:
        scaled = next(halves) * span
    direction = _standard_normal(words)
    return (scaled >> 32) + 1, direction, [_unit(next(words)) for _ in range(uniforms)]


def ski_trial_draws(master_seed: int, b: int, keys: Iterable[int], uniforms: int):
    """Each key's ski trial draws from its `derived_rngs` generator, bit for bit, as arrays.

    For the generator ``rng`` of key k, row k of the result holds
    ``gen_ski_days(b, rng)``, then ``rng.standard_normal()``, then
    ``rng.random(uniforms)``: an int64 day array, a float64 direction array and
    a (keys, uniforms) float64 array.  b is at most B_MAX, so 4b - 1 takes
    numpy's 32-bit bounded path; the keys are checked as `derived_rngs`
    checks them.

    The draws are numpy's, over PCG64's output words from the same seed
    states.  Most keys take both fast paths, drawn on arrays: Lemire's bounded
    integer stands on the low half of word 0 iff its leftover is at least
    (2^32 - 4b) mod 4b (``integers`` buffers the high half), the ziggurat
    returns at once on word 1 iff rabs < k[idx] (`_ZIG_K`), and each uniform
    is (word >> 11) * 2^-53 of a word after that.  The others, about 1.5% of
    keys, are drawn one at a time as numpy's C code draws them
    (`_slow_draws`), on the words already drawn and then a scalar PCG64
    stream that goes on from the array pass's last state (`_pcg_stream`).
    """
    master, keys = _words(master_seed), _key_array(keys)
    days, directions = np.empty(keys.size, np.int64), np.empty(keys.size)
    uniform_draws = np.empty((keys.size, uniforms))
    span = 4 * b
    threshold = (2**32 - span) % span
    for lo in range(0, keys.size, _RNG_CHUNK):
        part = slice(lo, lo + _RNG_CHUNK)
        words, ends = _pcg_words(_seed_states(master, keys[part]), 2 + uniforms)
        day_word, normal_word, *uniform_words = words
        scaled = (day_word & _LOW32) * np.uint64(span)
        days[part] = (scaled >> _SHIFT32) + np.uint64(1)
        layer = (normal_word & np.uint64(0xFF)).astype(np.intp)
        rabs = normal_word >> np.uint64(9) & np.uint64((1 << 52) - 1)
        direction = rabs.astype(np.float64) * _ZIG_W[layer]
        np.negative(direction, out=direction, where=(normal_word & np.uint64(0x100)).astype(bool))
        directions[part] = direction
        for j, word in enumerate(uniform_words):
            uniform_draws[part, j] = (word >> np.uint64(11)).astype(np.float64) * 2.0**-53
        slow = np.flatnonzero(((scaled & _LOW32) < np.uint64(threshold)) | (rabs >= _ZIG_K[layer]))
        known = np.stack([word[slow] for word in words], axis=1).tolist()
        for i, first, (hi, low, inc_hi, inc_lo) in zip(lo + slow, known, ends[slow].tolist()):
            stream = itertools.chain(first, _pcg_stream(hi << 64 | low, inc_hi << 64 | inc_lo))
            draws = _slow_draws(stream, span, threshold, uniforms)
            days[i], directions[i], uniform_draws[i] = draws
    return days, directions, uniform_draws


def gen_ski_days(b: int, rng: np.random.Generator) -> int:
    """Skiing days uniform on {1..4b}."""
    return int(rng.integers(1, 4 * b + 1))


def gen_pareto_lengths(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. Pareto job lengths, survival (1/t)^alpha for t >= 1.

    The shortest job is therefore never below one unit, matching the
    normalization the schedulers assume.
    """
    return 1.0 + rng.pareto(alpha, n)
