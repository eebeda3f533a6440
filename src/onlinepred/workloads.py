"""Synthetic workloads: uniform ski demand and heavy-tailed job lengths.

Reproducibility contract: trial key k of a master seed draws as numpy's
``default_rng(SeedSequence((master_seed, k)))`` would, for keys in [0, 2^32),
so trials can run in any order or in parallel without changing a single draw.
No generator is built: `_Draws` runs numpy's `SeedSequence` hash (O'Neill's
seed_seq mixing) on uint32 arrays over a chunk of keys at once, computes each
key's PCG64 output words from those seed states as one (words, keys) matrix
and decodes numpy's bounded-integer, exponential, normal and uniform draws on
arrays.  That includes the ziggurat draws off the fast path, tested with
`math`'s exp and log1p, the libm numpy calls; only a Lemire retry, the
normal's tail and a rejected wedge redrawn off the fast path are decoded in
scalar.  So a whole block of trials gets the draws its generators would give,
bit for bit, which the tests check against the installed numpy, and no module
imports ``numpy.random``.
`ski_trial_draws` and `sched_trial_draws` give the two sweeps' trials and
`seed_uniform`, from the same keyed seed states, the sampled buy day of
``trace ski``; none checks the sweep parameters, since the sweep configs do.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from typing import Iterable, Iterator, List, Optional, Tuple

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

# PCG64's 128-bit LCG multiplier, and the masks and shifts its arithmetic on
# (high, low) uint64 limbs uses.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
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

# numpy's ziggurat tables for ``standard_exponential``, copied the same way:
# ``fe_double`` (the density exp(-x) at each layer's edge), ``we_double`` and
# ``ke_double``.  Bits 3-10 of a word give layer idx and the 53 bits above
# them ri; numpy returns ri * w[idx] at once iff ri < k[idx], which layer 1
# never is.  The tests pin all three tables against the installed numpy.
_EXP_F, _EXP_W, _EXP_K = np.frombuffer(bytes.fromhex(
    "000000000000f03f371188e54505ee3ff1ff8150a6d0ec3f277beb7b00e5eb3f2a7fe60e0f21eb3f"
    "e7fa62a5ba76ea3f9b6d551597dee93f39aa55c43154e93f2fd2d376a3d4e83fb8c50678e85de83f"
    "2631242d8aeee73f7ed4099b6e85e73f634ba95bbb21e73fc6188449c3c2e63f065c4f6dfa67e63f"
    "66afa7c1ed10e63f75ac4c693dbde53f7387da82986ce53f9a897815ba1ee53faff851c166d3e43f"
    "69e08efb6a8ae43f25e1a8af9943e43f808bb12bcbfee33f14d1e144dcbbe33fd9dd08a7ad7ae33f"
    "18630e45233be33f5eda45e323fde23f244f1fb698c0e23fbd3211116d85e23fa3508c228e4be23f"
    "c83e81baea12e23f897b871973dbe13f253b1ec718a5e13fee6fce6dce6fe13f9c1633bc873be13f"
    "8dc31c4a3908e13f2b1e2b81d8d5e03f2ad054885ba4e03f7d3bee31b973e03f4865d2ebe843e03f"
    "24f360b1e214e03f764521fe3dcddf3ffac5bf8e2d72df3f4d42ebd18618df3f909d964b3dc0de3f"
    "51d37d364569de3ffc37e1759313de3f0c21a7881dbfdd3f7aedb97dd96bdd3f0b1a7ee9bd19dd3f"
    "92e040dcc1c8dc3f60fb83d9dc78dc3f83a50ed0062adc3fb5eeae1238dcdb3f880b9951698fdb3f"
    "6f8054949343db3f5fef2834b0f8da3fe5f6fdd6b8aeda3f4001a36aa765da3ff4217520761dda3f"
    "92375a691fd6d93fa87b09f29d8fd93f10819a9fec49d93f045d548c0605d93f395db704e7c0d83f"
    "8c3fbc84897dd83f386144b5e93ad83f59ceb66903f9d73f1e80c69dd2b7d73fe3725e735377d73f"
    "ea8db0308237d73f9d9e643e5bf8d63f9ce9e425dbb9d63f9f0dc68ffe7bd63fe4274842c23ed63f"
    "7658ef1f2302d63f6cee31261ec6d53fefa93a6cb08ad53fe7a3bd21d74fd53ff589de8d8f15d53f"
    "1df9260ed7dbd43fd3da8b15aba2d43fefbe802b096ad43fe24118ebee31d43f4ea130025afad33f"
    "85b2ab3048c3d33fef7db147b78cd33fddd0fc28a556d33f352431c60f21d33f70423920f5ebd23f"
    "6222ae4653b7d23f297645572883d23ffd76477d724fd23fff7e0bf12f1cd23fdb097bf75ee9d13f"
    "5abc9ae1fdb6d13f8219190c0b85d13fef91e2de8453d13fba9fbacc6922d13f6ca6d952b8f1d03f"
    "33538ff86ec1d03f133ee94e8c91d03fd2905df00e62d03f2c7c7980f532d03f6a4793ab3e04d03f"
    "5493ff4cd2abcf3f7e3e965ce74fcf3f9be0e80fbaf4ce3ff2405900489ace3fa7832fd68e40ce3f"
    "394f22488ce7cd3fb8eee31a3e8fcd3ffd31b420a237cd3f9fd0f638b6e0cc3f0218ce4f788acc3f"
    "eeafb95de634cc3f35443967fedfcb3fa5e4727cbe8bcb3f3eefdcb82438cb3f0b5beb422fe5ca3f"
    "493cc04bdc92ca3fbc5cdf0e2a41ca3f12c5e4d116f0c93f23163ee4a09fc93fa192e69ec64fc93f"
    "79bb25648600c93fd562509fdeb1c83ff91a8cc4cd63c83fe6e794505216c83fae1b85c86ac9c73f"
    "fe469fb9157dc73f39281ab95131c73fea84ee631de6c63f28daa65e779bc63facd130555e51c63f"
    "316ab0fad007c63fb6c25409cebec53ff5782e425476c53f498c076d622ec53ffab63c58f7e6c43f"
    "963098d811a0c43fc6cc2dc9b059c43f9a6a380bd313c43f05a9f88577cec33fc9d594269d89c33f"
    "af0cfadf4245c33f6e7dbeaa6701c33f34cf04850abec23f409960722a7bc23f78e8bb7bc638c23f"
    "65ca3dafddf6c13f66d631206fb5c13f78aef0e67974c13f2f71c920fd33c13f2017eceff7f3c03f"
    "2fb6547b69b4c03fbea5b7ee5075c03f047f6e7aad36c03f8deacba6fcf0bf3f140419668575bf3f"
    "3cc383aef3fabe3fccb98e044681be3ffbba61f57a08be3f9893ad169190bd3fd74d91068719bd3f"
    "57fd806b5ba3bc3faf102ef40c2ebc3f8f2671579ab9bb3f486535540246bb3f655465b143d3ba3f"
    "b738d93d5d61ba3f28f446d04df0b93f706b33471480b93fb974e588af10b93f3b535a831ea2b83f"
    "bac43b2c6034b83ff3a6d78073c7b73f1e3c1986575bb73fb61684480bf0b63f20b630dc8d85b63f"
    "f7deca5cde1bb63f3ebb91edfbb2b53f36d059b9e54ab53f29d990f29ae3b43f5c9843d31a7db43f"
    "0eb1259d6417b43f9e9f9b9977b2b33f18e7c619534eb33fd18d9476f6eab23f7005ce106188b23f"
    "8c9d2c519226b23f40a36fa889c5b13f9253758f4665b13f50ca5687c805b13f3b1b87190fa7b03f"
    "17c8f5d71949b03f769669bad0d7af3f34e84499f41eaf3fe5b22ea59e67ae3f10583149ceb1ad3f"
    "4a791e0383fdac3fe9210764bc4aac3f85d9be107a99ab3f84806ac2bbe9aa3f38f11b47813baa3f"
    "4c7c7b82ca8ea93f6d77806e97e3a83f6b393a1ce839a83f9e08abb4bc91a73f52afb67915eba63f"
    "41a026c7f245a63fcad2c51355a2a53febc596f23c00a53f196b2614ab5fa43fff18ff47a0c0a33f"
    "ae143f7e1d23a33f0cc056c92387a23fd412f35fb4eca13fa1b3199fd053a13f51d67c0c7abca03f"
    "eefa0d59b226a03f9098afc7f6249f3f6874517aaeff9d3f0c1b335490dd9c3f7058fa50a1be9b3f"
    "9b4e92e6e6a29a3f482a130f678a993f6799ec532875983f96fc87da3163973f7740a2728b54963f"
    "5102aba63d49953fbef087ce5141943f845d3125d23c933f323ab9e1c93b923f5f5f7254453e913f"
    "f0021e095244903fcec789defd9b8e3f57276e14b9b68c3f2dc94255fad88a3fbda78f68ea02893f"
    "f574aae6b634873fcb16e40b936e853f626f51c1b8b0833f7176b3ed69fb813ff9d75f29f24e803f"
    "c55d74fa51577d3f364897d4e9237a3f2036ec379f04773ffd22e3ce97fa733f434057693d07713f"
    "114bcd81b3586c3ffffea1f388d8663f24a3e1a86b94613f253e0c54b52b593fb9fc8df70ab24f3f"
    "4b0b9f321cc33d3fc15dbf94ec64d13c19415d8b9d58603c2b4d5b49b2d66a3cba8d5ba93593713c"
    "732a4ae5e622753c807ac2fb9050783cccb779efd1387b3c98bd6db7d8ec7d3c3c5cc649f03b803c"
    "70f6d624db70813c3326da900298823cca6e3dfe88b3833c21fe0bc615c5843cc34a029df8cd853c"
    "bd2ba7f040cf863c19d017dacdc9873c6f60d35459be883cd237225580ad893c03525dbec8978a3c"
    "c4a3dddda57d8b3c893f8cd77b5f8c3c367cf14da23d8d3c5a73f17866188e3caa4f5fcf0cf08e3c"
    "0932685dd2c48f3c58756aed764b903cfc809b4748b3903caff54987f319913ca0df4beb8c7f913c"
    "e7493ee926e4913c2eff3865d247923c0b6823e19eaa923c4bda26a59a0c933c02826de2d26d933c"
    "a06221d153ce933c486770ca282e943c12e7355f5c8d943c930bcd6bf8eb943c4d6f7829064a953c"
    "fdbeb83d8ea7953ccf2eddc79804963ce0680c6d2d61963c44a9fa6253bd963cbb9079791119973c"
    "737907236e74973c72817e7c6fcf973c99d5fe531b2a983cece12b2f7784983c2ac5d05088de983c"
    "44a2fdbd5338993c3813ad42de91993cbf03ff752ceb993c4a8814be42449a3c61d29653259d9a3c"
    "c924f244d8f59a3c9b974c795f4e9b3c898f3fb3bea69b3c99fe5993f9fe9b3c9fd2709a13579c3c"
    "db5ac22b10af9c3cfbe6f08ef2069d3c8d6bd8f1bd5e9d3c5790426a75b69d3cfe317cf71b0e9e3c"
    "4410cf83b4659e3c621be2e541bd9e3c9f9402e2c6149f3cb5fe572b466c9f3ca1a90465c2c39f3c"
    "d93c9a119f0da03c62b10df65d39a03cf876721c1f65a03c72004bbbe390a03c37017103adbca03c"
    "662f7a207ce8a03c15ac17395214a13cbe7d706f3040a13cfb7f77e1176ca13c96233da90998a13c"
    "83523ddd06c4a13ce2c4a99010f0a13c050eb1d3271ca23c29a3c2b34d48a23c9f18d03b8374a23c"
    "aacd8b74c9a0a23c5d3ba56421cda23c211703118cf9a23c1176fb7c0a26a33ca11b8aaa9d52a33c"
    "f01a859a467fa33cfcefcf4c06aca33c6d338dc0ddd8a33cc4094ff4cd05a43cd06c46e6d732a43c"
    "a76c7194fc5fa43cc483c8fc3c8da43ca4186b1d9abaa43cea45cbf414e8a43cfb00d981ae15a53c"
    "f8b52cc46743a53c276f31bc4171a53cf99c4e6b3d9fa53c359311d45bcda53c26cf56fa9dfba53c"
    "2e1a73e3042aa63c8c9b5c969158a63ceeebd31b4587a63cdf3c8d7e20b6a63c08a659cb24e5a63c"
    "fba950115314a73c1c04fa61ac43a73c30d177d13173a73c0a24b176e4a2a73cf7177d6bc5d2a73c"
    "7772ceccd502a83c2ae6dfba1633a83ce70861598963a83c540fa4cf2e94a83c9460cc4808c5a83c"
    "1315fef316f6a83ce1738e045c27a93c8a8235b2d858a93cf4bb40398e8aa93c5d03c7da7dbca93c"
    "51e9dddca8eea93c2d59d08a1021aa3c90c65635b653aa3c0ff3d0329b86aa3c7a6581dfc0b9aa3c"
    "ffacca9d28edaa3cb58b6ed6d320ab3c4225cff8c354ab3cb64f327bfa88ab3c102607db78bdab3c"
    "85fd2d9d40f2ab3c2de0424e5327ac3ca4b1ea82b25cac3cfb2323d85f92ac3c6ca595f35cc8ac3c"
    "8071ed83abfeac3cadf230414d35ad3cfea31eed436cad3c0aa58d5391a3ad3c7f35d24a37dbad3c"
    "9b5026b43713ae3c52a4167c944bae3c7f23f49a4f84ae3c78764a156bbdae3c68915bfce8f6ae3c"
    "7fbca06ecb30af3cd05e5198146baf3ce5e1efb3c6a5af3cd809dd0ae4e0af3cd411f97a370eb03c"
    "1b3911ef342cb03ca324929e6b4ab03cdb2611cfdc68b03c0fad3acf8987b03c19c833f773a6b03c"
    "6f9400a99cc5b03cb7cfef5005e5b03cceef0b66af04b13c4a15926a9c24b13c2b3a6feccd44b13c"
    "c104c4854565b13c9eae6fdd0486b13c2078a2a70da7b13c5a2a78a661c8b13c70339baa02eab13c"
    "a2f4f093f20bb23c50e54f52332eb23cba3b40e6c650b23ca6dac761af73b23c2b5342e9ee96b23c"
    "51db45b487bab23c702d960e7cdeb23c65592659ce02b33cd0a72a0b8127b33c65c93bb3964cb33c"
    "56a88cf81172b33c4351349cf597b33c838b8d7a44beb33cd0dead8c01e5b33cadeef5e92f0cb43c"
    "f842bdc9d233b43c2cc91b85ed5bb43c3294d3988384b43c4ca15da798adb43c27b11c7b30d7b43c"
    "0895b9084f01b53cb2aaac71f82bb53c5aa7f8063157b53c61441b4cfd82b53c07e138fa61afb53c"
    "9ebd880364dcb53c79180897080ab63c942e7b245538b63c32f4c3604f67b63cee48974afd96b63c"
    "1e7b9a2f65c7b63c0725f4b18df8b63c18d25cce7d2ab73cc371bde23c5db73cf9716bb5d290b73c"
    "d376147d47c5b73c12146ee9a3fab73cc3bec02cf130b83c427368063968b83cab5b69ce85a0b83c"
    "95363b82e2d9b83c4475f3d25a14b93c0e2afc34fb4fb93cd81a8df1d08cb93cead9243aeacab93c"
    "78f1493e560aba3c3b4ce843254bba3cea86adc2688dba3cc445d88233d1ba3c0ab603c09916bb3c"
    "0fea9150b15dbb3c5eda76d291a6bb3c77ef4bde54f1bb3ca7e0c241163ebc3cf4c8c842f48cbc3c"
    "7fa9f2ec0fdebc3cc538276b8d31bd3cec3bec6f9487bd3c9ff14eaf50e0bd3c6009196ef23bbe3c"
    "c183f32aaf9abe3c4aea5067c2fcbe3ca7f791976e62bf3ce5c6f643fecbbf3c2eec62b3e21cc03c"
    "ef8ef58b1156c03c4ea5cbcdc191c03ca0485d7831d0c03ca6924303a811c13c2a4475677856c13c"
    "d6c2b3bc039fc13c7cfac9a0bcebc13c9f9159b62b3dc23ca5aa49aef593c23cf011448ae3f0c23c"
    "5ef7cc27ee54c33c61b8c8c74ec1c33c6213e4669737c43cd15147cdd7b9c43cf673cf3cd84ac53c"
    "d21373e17aeec53c72bf4b6d67aac63c2fc6ead65087c73c19edf2e69f93c83c857b480ddce9c93c"
    "fc71da519ec3cb3c83bb7e29d9c9ce3cc697242714521c0000000000000000007e319cd75b7d1300"
    "103c3f8ef56e1800aeb00e32b79b1a007c4419f727d11b001a65880f1d951c0072395c2dfe1b1d00"
    "b2186bd55b7e1d00702c17dd34c91d00c89dacdf09041e003678d4717b331e00a2b77c178b5a1e00"
    "6c046f09427b1e003eae08af0d971e009ef04eb1f5ae1e005665b407bdc31e00ce9987f0f6d51e00"
    "88566eae14e61e00d01c36ca6ef41e00a4d4dd764b011f00b696a713e30c1f007af7f16963171f00"
    "7025450cf2201f0074a85119ae291f003255b98fb1311f0006c1575112391f004c696eebe23f1f00"
    "fa88d73233461f000e3a1dbf104c1f0022335c4c87511f00c0ecc309a1561f00969909d9665b1f00"
    "8cd01082e05f1f00725744dd14641f00789685f609681f00e6022b2ac56b1f00f4e4323d4b6f1f00"
    "3af19071a0721f00d6094d97c8751f00c05c041bc7781f00f43f41129f7b1f008a9f0746537e1f00"
    "3811e23be6801f006291ad3d5a831f0012b95660b1851f006242b289ed871f00fa749375108a1f00"
    "ac393dba1b8c1f004ad045cc108e1f00163e0102f18f1f00e0588396bd911f00d8af47ac77931f00"
    "da648b4f20951f0092386378b8961f009288960c41981f0080ba46e1ba991f00007f69bc269b1f00"
    "7a711b56859c1f0002d8cf59d79d1f00cea161671d9f1f00c036091458a01f0038333aeb87a11f00"
    "fcc46b6fada21f008206ce1ac9a31f00a26aee5fdba41f007c094daae4a51f008267e45ee5a61f00"
    "c41ea5dcdda71f0074a8e67ccea81f00ee5fce93b7a91f0058b8ad7099aa1f003282585e74ab1f00"
    "840574a348ac1f00e89fbf8216ad1f00c082573bdead1f006c1df208a0ae1f007eb018245caf1f00"
    "127a5bc212b01f00f4df8116c4b01f00faf1b65070b11f003a96b29e17b21f004aa8df2bbab21f00"
    "184e7f2158b31f000cbec9a6f1b31f00d6ac0ce186b41f00fc93c7f317b51f00aafdc500a5b51f00"
    "58fe37282eb61f000a01c988b3b61f009807b53f35b71f00a87ddc68b3b71f0008bad61e2eb81f00"
    "f647037ba5b81f00740f9a9519b91f000472ba858ab91f00266f7961f8b91f0086e2ee3d63ba1f00"
    "16ec412fcbba1f004491b44830bb1f00e2a4ae9c92bb1f009e02c83cf2bb1f009429d2394fbc1f00"
    "d440e1a3a9bc1f009e8f548a01bd1f009c72defb56bd1f006ad68b06aabd1f00403fcbb7fabd1f00"
    "de64731c49be1f005e69c94095be1f0028b18630dfbe1f007461def626bf1f00e28a829e6cbf1f00"
    "c404a931b0bf1f00b0fd0fbaf1bf1f008845024131c01f00b2545bcf6ec01f0026148b6daac01f00"
    "8a699923e4c01f00648a29f91bc11f0042197df551c11f004a0f771f86c11f00b4749e7db8c11f00"
    "42ea2016e9c11f00de05d5ee17c21f00fe833c0d45c21f00c24f867670c21f000e63902f9ac21f00"
    "4680e93cc2c21f00b4c6d2a2e8c21f00ec2241650dc31f000e9cde8730c31f00c67e0b0e52c31f00"
    "f866dffa71c31f0086282a5190c31f00fa977413adc31f0048330144c8c31f0040abcce4e1c31f00"
    "a84d8ef7f9c31f006050b87d10c41f0068fd777825c41f00c6bfb5e838c41f002a1115cf4ac41f00"
    "e847f42b5bc41f0004456cff69c41f00b201504977c41f00b8fb2b0983c41f00f67f453e8dc41f00"
    "1ad299e795c41f00b030dd039dc41f0032b47991a2c41f00fc078e8ea6c41f008cfbebf8a8c41f00"
    "9eea16cea9c41f0034fa410ba9c41f00a0284eada6c41f00742ec8b0a2c41f00e22de6119dc41f00"
    "f42d85cc95c41f00c05e26dc8cc41f007a23ec3b82c41f00e6de96e675c41f00827e81d667c41f00"
    "36c09d0558c41f00202e706d46c41f0098cb0b0733c41f000e6e0dcb1dc41f00f6bb96b106c41f00"
    "62cb48b2edc31f003c593ec4d2c31f00b49105deb5c31f004c6199f596c31f0092455a0076c31f00"
    "709306f352c31f001828b2c12dc31f008878bd5f06c31f0062f2cbbfdcc21f009e9fb9d3b0c21f00"
    "f0fc8f8c82c21f0064f179da51c21f009ed3b6ac1ec21f0056678cf1e8c11f003cbb3796b0c11f00"
    "10cddc8675c11f00b6d674ae37c11f001424bbf6f6c01f00a44d1848b3c01f00f0af8b896cc01f00"
    "64f392a022c01f00b8720f71d5bf1f008e4829dd84bf1f000ac62fc530bf1f00c60c7707d9be1f00"
    "da7d32807dbe1f0014a64b091ebe1f000844357ababd1f0026f8b9a752bd1f001a20c663e6bc1f00"
    "e44d2c7d75bc1f00aab763bfffbb1f00a2e63ff284bb1f008cd1a0d904bb1f00ac701a357fba1f00"
    "18b692bff3b91f00fcabd42e62b91f00164a1733cab81f00545b76762bb81f005c895b9c85b71f00"
    "9455d540d8b61f004269d9f722b61f00e0376f4c65b51f00d269bfbf9eb41f0046e703c8ceb31f00"
    "3e9c53cff4b21f005228443210b21f0004965a3e20b11f00c2e1423024b01f00a679c4311baf1f00"
    "04e1675704ae1f00722dbf9ddeac1f000a0640e6a8ab1f0028ff99f361aa1f00a2666f6508a91f00"
    "3c8d50b39aa71f0014f2d12617a61f0000ea8bd47ba41f0094c0c593c6a21f0014f37df4f4a01f00"
    "0abe6b33049f1f00bcf9792bf19c1f00c4ab1544b89a1f00b82f785b55981f00783fd0abc3951f00"
    "f2f1cea9fd921f001ce49adafc8f1f00f885739eb98c1f00069647ec2a891f008edb04f945851f00"
    "9a0336c3fd801f0026e93978427c1f00cc2a58a300771f001c241a0f20711f002a35b734826a1f00"
    "66e2a80000631f00c4e34f90665a1f007211ce4e72501f00da6f5c66c7441f00a2598aa3e5361f00"
    "0a34503414261f0014047b043e111f00e6cb57faaef61e001e1588a18cd31e00b02d121ea6a21e00"
    "7c268bc761591e00b00bac2bf6dd1d00c0e8e4d94ddb1c00"
), "<f8").reshape(3, 256)
_EXP_K = _EXP_K.view("<u8")
# numpy's ziggurat_exp_r, where the base layer's tail starts
_EXP_R = 7.6971174701310497140446280481
# Both samplers' tables as Python floats and ints, which the scalar samplers
# index several times faster than numpy arrays.
_ZIG_TABLES = tuple(table.tolist() for table in (_ZIG_F, _ZIG_W, _ZIG_K))
_EXP_TABLES = tuple(table.tolist() for table in (_EXP_F, _EXP_W, _EXP_K))

# Entries of the (words, keys) matrix, or of the (keys, 2 * _POOL_SIZE) seed
# hash words, that one `_Draws` pass computes; they bound the memory of a
# pass, which takes _WORD_ENTRIES // max(width, 2 * _POOL_SIZE) keys: 8192 at
# widths up to 8.
_WORD_ENTRIES = 1 << 16
# Words gathered at once for each draw off the fast path, which mostly reads
# two or three; the array steps read at most three.
_WINDOW = 4
# Keys with draws left below which `_Draws` takes them one at a time
# (`_one_by_one`): a round of array steps costs about as much as this many
# keys' slow draws in scalar.  The rounds serve wide draw calls, such as a
# ski-sweep block's 12,787 keys; `_one_by_one` serves the last few keys of a
# sched-sweep block and a key with a long run of draws.
_ROUND_KEYS = 16


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
    is those words then the key.  ``master`` may be empty: a seed's lower
    words with its top word as the key give ``SeedSequence(seed)``'s state
    (`seed_uniform`).  Words past the 4-word pool (entropy of 5 words and
    up) are mixed into every pool word after the pool is mixed.
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
    out = np.empty((pool[0].size, 2 * _POOL_SIZE), np.uint64)  # every pool word has the keys' shape
    for i in range(2 * _POOL_SIZE):
        out[:, i] = hashmix(pool[i % _POOL_SIZE])
    # uint32 words pair up low word first, whatever the host's byte order
    return out[:, 0::2] | (out[:, 1::2] << np.uint64(32))


def _key_array(keys: Iterable[int]) -> np.ndarray:
    """``keys`` as a uint32 array; ValueError unless they are integers in [0, 2^32)."""
    keys = np.asarray(keys if isinstance(keys, np.ndarray) else list(keys))
    if keys.size and (
        keys.ndim != 1 or keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32
    ):
        raise ValueError("keys must be a flat sequence of integers in [0, 2**32)")
    return keys.astype(np.uint32)


def _affine(hi: np.ndarray, lo: np.ndarray, mult: int, add_hi, add_lo):
    """(hi, lo) * mult + (add_hi, add_lo) mod 2^128, on (high, low) uint64 limbs.

    ``mult`` is a Python int below 2^128, and the adds broadcast to the
    limbs' shape.  The steps work in place on new arrays, which saves a third
    of the time on the large arrays `_pcg_words` passes.
    """
    mult_hi, mult_lo = np.uint64(mult >> 64), np.uint64(mult & _MASK64)
    m0, m1 = mult_lo & _LOW32, mult_lo >> _SHIFT32
    # high word of lo * mult_lo, from 32-bit halves so no partial sum wraps:
    # cross = lo1 * m0 + (lo0 * m0 >> 32), then lo1 * m1 + (cross >> 32)
    # + ((lo0 * m1 + (cross & 2^32 - 1)) >> 32)
    lo0, high = lo & _LOW32, lo >> _SHIFT32
    cross = lo0 * m0
    cross >>= _SHIFT32
    cross += high * m0
    lo0 *= m1
    lo0 += cross & _LOW32
    lo0 >>= _SHIFT32
    cross >>= _SHIFT32
    high *= m1
    high += cross
    high += lo0
    new_lo = lo * mult_lo
    new_lo += add_lo
    high += hi * mult_lo
    high += lo * mult_hi
    high += add_hi
    high += new_lo < add_lo  # the carry out of the low limb
    return high, new_lo


def _pcg_words(states: np.ndarray, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first ``count`` >= 1 64-bit outputs of ``PCG64`` seeded with each row of ``states``.

    A row is the 4 uint64 words a seed sequence gives PCG64: the initial state's
    high and low limbs, then those of the stream number, whose increment is
    2 * stream + 1.  Seeding steps from state 0, adds the initial state and
    steps again; the outputs are `_pcg_run`'s from there.
    """
    init_hi, init_lo, stream_hi, stream_lo = states.T
    inc_hi = stream_hi << np.uint64(1) | stream_lo >> np.uint64(63)
    inc_lo = stream_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo).astype(np.uint64)
    return _pcg_run(*_affine(hi, lo, _PCG_MULT, inc_hi, inc_lo), inc_hi, inc_lo, count)


def _pcg_run(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray, count: int):
    """PCG64's next ``count`` >= 1 64-bit outputs after each 128-bit state (hi, lo).

    Each output steps the state, state * multiplier + inc mod 2^128, then
    takes XSL-RR of the new state: its high limb xor its low limb, rotated
    right by the state's top 6 bits.  The states are computed by doubling,
    not step by step: d steps map a state s to a^d s + (a^(d-1) + ... + 1) inc,
    so once the first d outputs are known one affine map gives the next d.
    Returns the (count, keys) output words and, to go on from, the last
    state's and the increment's high and low limbs as (keys, 4) rows.
    """
    his, los = np.empty((2, count, hi.size), np.uint64)
    his[0], los[0] = _affine(hi, lo, _PCG_MULT, inc_hi, inc_lo)
    # outputs known, d, and the map of d steps: mult * state + (add_hi, add_lo)
    done, mult, add_hi, add_lo = 1, _PCG_MULT, inc_hi, inc_lo
    while done < count:
        take = min(done, count - done)
        his[done:done + take], los[done:done + take] = _affine(
            his[:take], los[:take], mult, add_hi, add_lo
        )
        done += take
        if done < count:
            add_hi, add_lo = _affine(add_hi, add_lo, mult, add_hi, add_lo)
            mult = mult * mult & _MASK128
    mixed, rot = his ^ los, his >> _ROT_SHIFT
    words = mixed >> rot | mixed << ((np.uint64(64) - rot) & np.uint64(63))
    return words, np.stack([his[-1], los[-1], inc_hi, inc_lo], axis=1)


def _unit(word: int) -> float:
    """numpy's ``next_double``: the top 53 bits of a word over 2^53."""
    return (word >> 11) * 2.0**-53


def _bounded(words: Iterator[int], span: int) -> int:
    """numpy's Lemire bounded integer on {0..span-1}, span <= 2^32, from ``words``.

    It reads 32-bit halves, low half first, and retries while the leftover
    is below (2^32 - span) mod span.
    """
    threshold = (2**32 - span) % span
    halves = (half for word in words for half in (word & _MASK32, word >> 32))
    scaled = next(halves) * span
    while scaled & _MASK32 < threshold:
        scaled = next(halves) * span
    return scaled >> 32


def _standard_normal(words: Iterator[int]) -> float:
    """numpy's ziggurat ``random_standard_normal``, reading 64-bit words from ``words``.

    A word off the fast path (`_ZIG_K`) is drawn from the base layer's tail
    when its layer is 0 and is otherwise kept iff a uniform height in its
    layer's wedge falls under the density; failing that, the next word starts
    over.  The tail's sign is bit 8 of rabs, as in numpy.
    """
    fi, wi, ki = _ZIG_TABLES
    while True:
        word = next(words)
        layer, rabs = word & 0xFF, word >> 9 & (1 << 52) - 1
        x = rabs * wi[layer]
        if word & 0x100:
            x = -x
        if rabs < ki[layer]:
            return x
        if layer == 0:
            while True:
                xx = -_ZIG_INV_R * math.log1p(-_unit(next(words)))
                yy = -math.log1p(-_unit(next(words)))
                if yy + yy > xx * xx:
                    return -(_ZIG_R + xx) if rabs >> 8 & 1 else _ZIG_R + xx
        high, low = fi[layer - 1], fi[layer]
        if (high - low) * _unit(next(words)) + low < math.exp(-0.5 * x * x):
            return x


def _standard_exponential(words: Iterator[int]) -> float:
    """numpy's ziggurat ``random_standard_exponential``, reading 64-bit words from ``words``.

    Off the fast path (`_EXP_K`), layer 0 returns r - log1p(-U) from the
    tail at r = `_EXP_R`, and any other layer keeps x iff a uniform height
    in its wedge falls under exp(-x); failing that, the next word starts over.
    """
    fe, we, ke = _EXP_TABLES
    while True:
        word = next(words)
        layer, ri = word >> 3 & 0xFF, word >> 11
        x = ri * we[layer]
        if ri < ke[layer]:
            return x
        if layer == 0:
            return _EXP_R - math.log1p(-_unit(next(words)))
        high, low = fe[layer - 1], fe[layer]
        if (high - low) * _unit(next(words)) + low < math.exp(-x):
            return x


def _normal_fast(words: np.ndarray):
    """`_standard_normal`'s value and fast-path test of each word, on arrays."""
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = words >> np.uint64(9) & np.uint64((1 << 52) - 1)
    x = rabs.astype(np.float64) * _ZIG_W[layer]
    sign = x.view(np.uint64)
    sign ^= (words & np.uint64(0x100)) << np.uint64(55)  # -x where bit 8 of the word is set
    return x, rabs < _ZIG_K[layer]


def _exponential_fast(words: np.ndarray):
    """`_standard_exponential`'s value and fast-path test of each word, on arrays."""
    layer = (words >> np.uint64(3) & np.uint64(0xFF)).astype(np.intp)
    ri = words >> np.uint64(11)
    return ri.astype(np.float64) * _EXP_W[layer], ri < _EXP_K[layer]


def _unit_fast(words: np.ndarray):
    """`_unit` of each word, on arrays; every word is on the fast path."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53, np.True_


def _wedge(fast, f: np.ndarray, layer: np.ndarray, x: np.ndarray, exponent: np.ndarray, words):
    """A ziggurat sampler's wedge test on arrays, for draws whose first word is off the fast path.

    Column j of ``words`` holds a draw's words from that first one on, which
    gives ``layer`` and value x; for layer 0, the tail, the caller replaces
    the result.  As in numpy's C code, x is kept iff (f[layer - 1] -
    f[layer]) * U + f[layer] < exp(``exponent``), with U from the second
    word and exp from `math`, the libm numpy calls (numpy's vectorised exp
    may differ in the last bit).  A rejected x is redrawn from the third
    word, here only if that word is on ``fast``'s fast path.  Returns the
    values and the words each draw read: 2, 3, or 0 for a redraw off the
    fast path, whose value is left to the scalar decoder.
    """
    density = np.fromiter(map(math.exp, exponent.tolist()), np.float64, x.size)
    kept = (f[layer - 1] - f[layer]) * _unit_fast(words[1])[0] + f[layer] < density
    again, easy = fast(words[2])
    return np.where(kept, x, again), np.where(kept, 2, np.where(easy, 3, 0))


def _normal_slow(words: np.ndarray, x: np.ndarray):
    """`_standard_normal` on arrays, for draws whose first word is off the fast path.

    Column j of ``words`` holds draw j's words from that first one on, and
    x the value the first one gives.  The wedge layers go through `_wedge`;
    the base layer's tail reads a run of uniform pairs, so it is left to the
    scalar decoder.  Returns the values and the words each draw read, 0 for
    one left to the scalar decoder.
    """
    layer = (words[0] & np.uint64(0xFF)).astype(np.intp)
    value, read = _wedge(_normal_fast, _ZIG_F, layer, x, -0.5 * x * x, words)
    read[layer == 0] = 0
    return value, read


def _exponential_slow(words: np.ndarray, x: np.ndarray):
    """`_standard_exponential` on arrays, for draws whose first word is off the fast path.

    Column j of ``words`` holds draw j's words from that first one on, and
    x the value the first one gives.  The wedge layers go through `_wedge`;
    the base layer returns r - log1p(-U), r = `_EXP_R`, with U from the
    second word and log1p from `math`.  Returns the values and the words
    each draw read, 0 for one left to the scalar decoder.
    """
    layer = (words[0] >> np.uint64(3) & np.uint64(0xFF)).astype(np.intp)
    value, read = _wedge(_exponential_fast, _EXP_F, layer, x, -x, words)
    tail = np.flatnonzero(layer == 0)
    uniforms = (-_unit_fast(words[1, tail])[0]).tolist()
    value[tail] = _EXP_R - np.fromiter(map(math.log1p, uniforms), np.float64, tail.size)
    read[tail] = 2
    return value, read


class _Draws:
    """numpy ``Generator`` draws of many per-key streams at once, bit for bit.

    Column k of ``words`` holds the first ``width`` PCG64 output words of
    key k's generator ``default_rng(SeedSequence((master_seed, key)))``,
    computed in passes of max(1, `_WORD_ENTRIES` // max(width, 8)) keys, and
    ``cursor[k]`` counts the words that key's draws have read so far.  Each
    method draws ``count`` values per key (an int, or one count per key) in
    order, as the generator would, and returns them as a float64 (keys,
    largest count) array whose entries past a key's count are 0.

    A draw on its fast path reads one word and is decoded on arrays, where
    only exact IEEE operations run.  A key's run of fast draws stops at its
    first word off the fast path or past the words decoded.  A draw off the
    fast path is decoded from its own words before the key's next run, as
    numpy's C code does it: on arrays for the keys of a round
    (`_normal_slow`, `_exponential_slow`), and in scalar for what those
    leave and for a draw call's last few keys (`_one_by_one`).  Words past
    the matrix go on from the key's last state (`_window`).  So the scalar
    work grows with the slow draws, not with ``count``.  ``integers`` reads
    32-bit halves and keeps none of the upper halves numpy buffers, so only a
    first ``integers`` call is exact, after 64-bit draws too; a second raises.
    """

    def __init__(self, master_seed: int, keys: Iterable[int], width: int):
        master, keys = _words(master_seed), _key_array(keys)
        step = max(1, _WORD_ENTRIES // max(width, 2 * _POOL_SIZE))
        words, ends = zip(*(
            _pcg_words(_seed_states(master, keys[lo:lo + step]), width)
            for lo in range(0, max(keys.size, 1), step)
        ))
        self.words, self.ends = np.concatenate(words, axis=1), np.concatenate(ends)
        self.cursor = np.zeros(keys.size, np.intp)
        self.drew_integers = False

    def _window(self, keys: np.ndarray, at: np.ndarray, count: int) -> np.ndarray:
        """Each key's ``count`` words from position ``at`` on, as (count, keys):
        its matrix column, then the words past it, from the key's last state."""
        width = self.words.shape[0]
        ahead = at + np.arange(count)[:, None]
        words = self.words[np.minimum(ahead, width - 1), keys]
        past = ahead - width
        if past.max(initial=-1) >= 0:
            extra, _ = _pcg_run(*self.ends[keys].T, int(past.max()) + 1)
            words = np.where(past >= 0, extra[np.maximum(past, 0), np.arange(keys.size)], words)
        return words

    def _scalar(self, key: int, at: int, window: List[int], draw) -> Tuple[float, int]:
        """One ``draw`` of ``key`` decoded in scalar from position ``at``, and the words it read.

        ``window`` holds the key's next `_WINDOW` words, which nearly every
        draw stays within; one that reads past them reads from ever longer
        windows.
        """
        count = _WINDOW
        while True:
            words = iter(window)
            try:
                return draw(words), count - operator.length_hint(words)
            except StopIteration:
                count *= 2
                window = self._window(np.array([key]), np.array([at]), count)[:, 0].tolist()

    def _draw(self, count, fast, draw, step=None) -> np.ndarray:
        """``count`` draws per key: ``fast`` decodes words on arrays into (values,
        on the fast path), ``draw`` decodes one draw in scalar from a word
        iterator and ``step``, if given, decodes on arrays the draws whose
        first word is off the fast path, as (values, words read), 0 words for
        a draw it leaves to ``draw``.

        The words from the lowest cursor to a little past the furthest draw
        are decoded once, and each key's draws are first taken as if they all
        lay on the fast path there.  The keys for which that fails go on in
        rounds: each makes its draw at the failing word, on arrays if that
        word is on the fast path past the decoded ones or ``step`` decodes it
        and in scalar otherwise, then its next run of fast draws, found by
        binary search among the words off the fast path.  Those runs are
        copied out at the end.  Once fewer than `_ROUND_KEYS` keys have draws
        left, each finishes on its own (`_one_by_one`), in scalar.
        """
        width, size = self.words.shape
        steps = np.arange(np.max(count, initial=0))[:, None]
        count = np.broadcast_to(count, (size,))
        if not (size and steps.size):
            return np.zeros((size, steps.size))
        lo = min(int(self.cursor.min()), width - 1)
        hi = min(width, int(self.cursor.max()) + steps.size + steps.size // 8 + _WINDOW)
        values, on_path = fast(self.words[lo:hi])
        on_path, rows = np.broadcast_to(on_path, values.shape), hi - lo
        # (draw, key) arrays, as are ``values`` and ``out``
        at = self.cursor - lo + steps
        inside, wanted = at < rows, steps < count
        at = np.minimum(at, rows - 1), np.arange(size)
        out = np.where(wanted, values[at], 0.0)
        kept = on_path[at] & inside | ~wanted
        self.cursor += count
        keys = np.flatnonzero(~kept.all(axis=0))
        if not keys.size:
            return np.ascontiguousarray(out.T)
        done = kept[:, keys].argmin(axis=0)
        self.cursor[keys] += done - count[keys]
        slow, runs = None, []
        while keys.size >= _ROUND_KEYS:
            at = self.cursor[keys]
            words = self._window(keys, at, _WINDOW)
            # a key past the decoded words may stand at a word on the fast path
            value, easy = fast(words[0])
            read = np.ones(keys.size, np.intp)
            hard = np.flatnonzero(~np.broadcast_to(easy, keys.shape))
            if step is not None and hard.size:
                value[hard], read[hard] = step(words[:, hard], value[hard])
                hard = hard[read[hard] == 0]
            made = [
                self._scalar(key, a, window, draw)
                for key, a, window in zip(
                    keys[hard].tolist(), at[hard].tolist(), words[:, hard].T.tolist()
                )
            ]
            if made:
                value[hard], read[hard] = zip(*made)
            out[done, keys] = value
            self.cursor[keys] = at = at + read
            done += 1
            left = done < count[keys]
            keys, done, at = keys[left], done[left], at[left]
            if not keys.size:
                break
            if slow is None:  # words off the fast path, as flat positions key * rows + row
                slow = np.append(np.flatnonzero(~on_path.T), size * rows)
            start = keys * rows + np.minimum(at - lo, rows)  # past its row: the next row's
            stop = slow[np.searchsorted(slow, start)] - keys * rows + lo
            run = np.clip(np.minimum(stop, hi) - at, 0, count[keys] - done)
            runs.append((keys, done.copy(), at - lo, run))
            self.cursor[keys] = at + run
            done += run
            left = done < count[keys]
            keys, done = keys[left], done[left]
        for key, first in zip(keys.tolist(), done.tolist()):
            self._one_by_one(key, first, int(count[key]), out, values, on_path, lo, draw)
        if runs:
            keys, starts, froms, run = (np.concatenate(column) for column in zip(*runs))
            within = np.arange(run.sum()) - np.repeat(np.cumsum(run) - run, run)
            keys = np.repeat(keys, run)
            starts, froms = np.repeat(starts, run) + within, np.repeat(froms, run) + within
            out[starts, keys] = values[froms, keys]
        return np.ascontiguousarray(out.T)

    def _one_by_one(self, key: int, done: int, count: int, out, values, on_path, lo: int, draw):
        """`_draw`'s rounds for one key: its draws ``done`` to ``count`` into
        column ``key`` of ``out``, from a cursor at a word off the fast path or
        past the decoded ``values``, whose rows start at word ``lo``.

        The key's words past the matrix are generated once per call, from its
        last state, in runs that double what the call holds, so a long run of
        draws past a narrow matrix takes time linear in its words.
        """
        width, hi = self.words.shape[0], lo + len(values)
        slow = (np.flatnonzero(~on_path[:, key]) + lo).tolist()
        at = int(self.cursor[key])
        base = min(at, width)  # the word column[0] holds
        column, state = self.words[base:, key].tolist(), self.ends[key:key + 1]
        while done < count:
            while at + _WINDOW > base + len(column):
                extra, state = _pcg_run(*state.T, max(len(column), _WINDOW))
                column += extra[:, 0].tolist()
            window = column[at - base:at - base + _WINDOW]
            out[done, key], read = self._scalar(key, at, window, draw)
            at, done = at + read, done + 1
            after = bisect.bisect_left(slow, at)
            stop = min(slow[after] if after < len(slow) else hi, hi)
            run = max(0, min(stop - at, count - done))
            out[done:done + run, key] = values[at - lo:at - lo + run, key]
            at, done = at + run, done + run
        self.cursor[key] = at

    def integers(self, span: int) -> np.ndarray:
        """One ``integers(0, span)`` per key, 2 <= span <= 2^32, as the key's first 32-bit draw."""
        if self.drew_integers:
            raise RuntimeError("a second integers call misses the halves numpy buffers")
        self.drew_integers = True
        threshold = np.uint64((2**32 - span) % span)

        def fast(words):
            scaled = (words & _LOW32) * np.uint64(span)
            return scaled >> _SHIFT32, (scaled & _LOW32) >= threshold

        return self._draw(1, fast, functools.partial(_bounded, span=span))[:, 0]

    def standard_normal(self, count) -> np.ndarray:
        return self._draw(count, _normal_fast, _standard_normal, _normal_slow)

    def standard_exponential(self, count) -> np.ndarray:
        return self._draw(count, _exponential_fast, _standard_exponential, _exponential_slow)

    def random(self, count) -> np.ndarray:
        return self._draw(count, _unit_fast, lambda words: _unit(next(words)))


def ski_trial_draws(master_seed: int, b: int, keys: Iterable[int], uniforms: int):
    """Each key's ski trial draws, bit for bit as its numpy generator makes them, as arrays.

    For the generator ``rng = default_rng(SeedSequence((master_seed, key)))``
    of key k, row k of the result holds the skiing days
    ``rng.integers(1, 4 * b + 1)``, uniform on {1..4b}, then
    ``rng.standard_normal()``, then ``rng.random(uniforms)``: an int64 day
    array, a float64 direction array and a (keys, uniforms) float64 array.
    b is at most B_MAX, so 4b - 1 takes numpy's 32-bit bounded path.  Keys
    outside [0, 2^32) and negative seeds raise ValueError.  About 1.5% of
    keys leave a fast path (`_Draws`).
    """
    draws = _Draws(master_seed, keys, 2 + uniforms)
    days = draws.integers(4 * b).astype(np.int64) + 1
    return days, draws.standard_normal(1)[:, 0], draws.random(uniforms)


def sched_trial_draws(
    master_seed: int, alpha: float, n: int, keys: Iterable[int], jobs_key: Optional[int] = None
):
    """Each key's job lengths and noise directions, bit for bit as its numpy generator makes them.

    For the generator ``rng = default_rng(SeedSequence((master_seed, key)))``
    of key k, row k of the (keys, n) float64 results holds the n i.i.d.
    Pareto job lengths ``1.0 + rng.pareto(alpha, n)``, survival (1/t)^alpha
    for t >= 1, so no job is shorter than the one unit the schedulers
    assume, then ``rng.standard_normal(n)``.  With a ``jobs_key``, every
    row's lengths are those of that key's generator instead, and each key
    draws only its directions.  A Pareto length is 1 + expm1(E / alpha) of a
    standard exponential E; expm1 runs in `math`, which is the libm numpy
    calls, since numpy's vectorised expm1 may differ from it in the last bit.
    """
    slack = 8 + n // 8  # words for the slow draws, so few keys read past the matrix
    if jobs_key is None:
        draws = _Draws(master_seed, keys, 2 * n + slack)
        scaled = draws.standard_exponential(n) / float(alpha)
    else:
        scaled = _Draws(master_seed, [jobs_key], n + slack).standard_exponential(n) / float(alpha)
        draws = _Draws(master_seed, keys, n + slack)
    lengths = 1.0 + np.fromiter(map(math.expm1, scaled.ravel().tolist()), np.float64, scaled.size)
    directions = draws.standard_normal(n)
    return np.broadcast_to(lengths.reshape(-1, n), directions.shape).copy(), directions


def seed_uniform(master_seed: int) -> float:
    """``default_rng(SeedSequence(master_seed)).random()``, bit for bit.

    ``SeedSequence(master_seed)`` hashes the seed's uint32 words, which is
    the entropy of the keyed stream of its lower words with its top word as
    the key; the draw is that stream's first word as a `_unit`.
    """
    *lower, top = _words(master_seed)
    words, _ = _pcg_words(_seed_states(lower, np.array([top], np.uint32)), 1)
    return _unit(int(words[0, 0]))
