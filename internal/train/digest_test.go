package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"
	"testing"

	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/shard"
)

// digestDatasets are the model shapes the run digest trains: the
// benchmark's scaled Kaggle RM2 (13-64-16 bottom, 367-64-1 top: a ReLU-fed
// one-column output layer and an interaction output whose first 16 columns
// are ReLU outputs), a smaller SYN-MH (8 multi-hot tables at dim 64 behind a
// one-layer 100 -> 1 top) and TBSM (the attention path).
var digestDatasets = map[string]func() data.Config{
	"kaggle": func() data.Config {
		c := data.CriteoKaggle()
		c.BotMLP, c.TopMLP = []int{13, 64, 16}, []int{64, 1}
		return c
	},
	"synmh": func() data.Config {
		rows := []int{3000, 2000, 1500, 1000, 750, 500, 375, 250}
		full := make([]int64, len(rows))
		for i, r := range rows {
			full[i] = int64(r) * 1000
		}
		return data.Config{
			Name: "SYN-MH", RM: "SYN-MH",
			DenseFeatures: 13, NumTables: len(rows),
			FullRowsPerTable: full, ScaledRowsPerTable: rows,
			LookupsPerTable: 8, ZipfS: 1.2, DriftPerDay: 0.10, HotFracRows: 0.20,
			EmbedDim: 64, BotMLP: []int{13, 64}, TopMLP: []int{1},
			Samples: 4096, Seed: 0x5E4D, ScaleFactor: 1000, FullSizeGB: 2,
		}
	},
	"tbsm": data.TaobaoAlibaba,
}

// runDigests is the checked-in table: one SHA-256 per dataset, executor,
// quant mode and rule, computed before the dense GEMM drivers and ReLU were
// rewritten (the mixed-tier entries before the shard service dropped its
// grow-at-first-touch routing path). Both executors agree on Kaggle, whose bags hold one row each;
// on the multi-hot datasets Hotline's µ-batches sum a row's gradients in
// another order. Change an entry only in a change that says why.
var runDigests = map[string]string{
	"kaggle/baseline/fp32/adagrad":               "11277ee049fc95ef68a6ba8a531c35f60490952f98923c21d22bacb4a306a252",
	"kaggle/baseline/fp32/sgd":                   "3d189b3bb48f1918d019f3b28da9495a8efa03ce124018149c5f1e446bd97b12",
	"kaggle/baseline/hot-fp32+warm-int8/adagrad": "25663d49c02ed1a81bbc315ef5326cdf5b3de32a9677c1e4d2490315c9979e46",
	"kaggle/baseline/hot-fp32+warm-int8/sgd":     "44523b96521172fbe271884e1490e86350f3216a946a6ea1e6a0a98acfbd4d17",
	"kaggle/baseline/int8/adagrad":               "893d774fa85a731c91cf33a0a87b0201693cf2fa10a98dbe3697f6737cf3e16b",
	"kaggle/baseline/int8/sgd":                   "4db8044f858ddbbc0ec803c0b81c395acabd403edfc9bd654e9d7381901cd9ca",
	"kaggle/hotline/fp32/adagrad":                "11277ee049fc95ef68a6ba8a531c35f60490952f98923c21d22bacb4a306a252",
	"kaggle/hotline/fp32/sgd":                    "3d189b3bb48f1918d019f3b28da9495a8efa03ce124018149c5f1e446bd97b12",
	"kaggle/hotline/hot-fp32+warm-int8/adagrad":  "25663d49c02ed1a81bbc315ef5326cdf5b3de32a9677c1e4d2490315c9979e46",
	"kaggle/hotline/hot-fp32+warm-int8/sgd":      "44523b96521172fbe271884e1490e86350f3216a946a6ea1e6a0a98acfbd4d17",
	"kaggle/hotline/int8/adagrad":                "893d774fa85a731c91cf33a0a87b0201693cf2fa10a98dbe3697f6737cf3e16b",
	"kaggle/hotline/int8/sgd":                    "4db8044f858ddbbc0ec803c0b81c395acabd403edfc9bd654e9d7381901cd9ca",
	"synmh/baseline/fp32/adagrad":                "b54b58e62693e50fad20b2b83492d3b76499cebe2b54070e18d390c47ce93899",
	"synmh/baseline/fp32/sgd":                    "e4080ead22d2721fcd2123234d3f8e1171e1d2739f6360bec6b099b00a7d3152",
	"synmh/baseline/hot-fp32+warm-int8/adagrad":  "9e243af464b6c327b7c16c8be3766580408706a41b4eb953e32f65ba829de885",
	"synmh/baseline/hot-fp32+warm-int8/sgd":      "ec88a8a45aedae64f41e0fd4b63d3f9743483fa56557c4bf7cd22e1a4686b851",
	"synmh/baseline/int8/adagrad":                "43c554abd0aa6f55d203467594ca08090d0700bdf94b7c82e3464a7bdc5ba2c5",
	"synmh/baseline/int8/sgd":                    "affc5f7ce80f054418d54375e8d56e866dfc7c52b46f831c0ec05e00f27e684f",
	"synmh/hotline/fp32/adagrad":                 "f61248f6ed1790cec74b609d9bb29628f5bdb18af3a5bee35277215dd342785c",
	"synmh/hotline/fp32/sgd":                     "e1b1b0a93380532c118068c35c3f190c8fd2df552d56fb7847b06937c9a15da9",
	"synmh/hotline/hot-fp32+warm-int8/adagrad":   "c7d0eb48c95f6876eb18b908e1da48473be2445aef6d3a3eb3f029485681f031",
	"synmh/hotline/hot-fp32+warm-int8/sgd":       "9354406362e4251387d3e951338b9fa5feec3ef02687a11948a24e9e07abcf33",
	"synmh/hotline/int8/adagrad":                 "a5a8bc32f5d21904133ac91b86e34f9ec9edf4fd1acdddec25cbaf221534ae94",
	"synmh/hotline/int8/sgd":                     "d123d4bc9aa9adf8c983d7c8c922d7d7ddde7a12bc873a337e4d62edbb15b100",
	"tbsm/baseline/fp32/adagrad":                 "d0c6133839c096b44625120b416d15aa210cd863aca4a2775dd3f90f9f6d553f",
	"tbsm/baseline/fp32/sgd":                     "b761d708c10901baddd66b7b5f1306a41b4b056498c9b64eef328110faa8e315",
	"tbsm/baseline/hot-fp32+warm-int8/adagrad":   "d3982dfafb264fbb0b8f0cb3447a1f2b12307aef4fe0173175ffd2bddd6324e9",
	"tbsm/baseline/hot-fp32+warm-int8/sgd":       "e4fdb189337e331040fe8af6231ddb726603f4804dbaea94c5c5b29222181af9",
	"tbsm/baseline/int8/adagrad":                 "97cc5a19a80dff217aa395be52bfa998a55f5a195e02e18982f8d6414bfa609f",
	"tbsm/baseline/int8/sgd":                     "0ffe205fb132a42d02b6ccae8b0cdf8aeed8ed08b32ed755bc178940adf6bca8",
	"tbsm/hotline/fp32/adagrad":                  "77702e0738edf195157ec28c33a894b2e0f349f78f5c45122dd32a62b8b919bf",
	"tbsm/hotline/fp32/sgd":                      "7cd3c1b780542d38cc5d4b8102dc5cffffd8e27bc11fa34d6c4cb395ac80b95c",
	"tbsm/hotline/hot-fp32+warm-int8/adagrad":    "c79b0312840dc7d866b411c4a6a5735605ef9d964040eeceae2d7261f357277d",
	"tbsm/hotline/hot-fp32+warm-int8/sgd":        "98e21d19acb114279d241e74cf15bbbd0218377b458a197e1e9bb25fa5ac749a",
	"tbsm/hotline/int8/adagrad":                  "978efc235585205ef3afe0739e5e14e20d6dcd4dc50e0e2fa8a60526c0aa8688",
	"tbsm/hotline/int8/sgd":                      "72fa39b259aa920aaa0e121feeb7d617f63083818f4cada074a8fb428579df0a",
}

// trainCountDigests and serveCountDigests are the counts tables: one
// SHA-256 per sharded cell's class and depth over the service's training
// counters and, apart, over its serve counters (runDigest), so a change that
// moves a hit, a miss, an eviction, a window or a repair fails here even
// where every bit of state survives it, and names the side it moved. The
// node count is 4 in every entry. Change an entry only in a change that says
// why.
var trainCountDigests = map[string]string{
	"kaggle/baseline/fp32/adagrad/d1":               "c2d89def77f2abce565500cf4e08b2a8db0d0d3ce83feda205d4e4fb665da70a",
	"kaggle/baseline/fp32/sgd/d1":                   "c2d89def77f2abce565500cf4e08b2a8db0d0d3ce83feda205d4e4fb665da70a",
	"kaggle/baseline/hot-fp32+warm-int8/adagrad/d1": "543c3ce0bea714cfabf06841fb30d6ccc100fec11a1d98adf6c6a666bb578023",
	"kaggle/baseline/hot-fp32+warm-int8/sgd/d1":     "543c3ce0bea714cfabf06841fb30d6ccc100fec11a1d98adf6c6a666bb578023",
	"kaggle/baseline/int8/adagrad/d1":               "2b3f7b60e6a5117c2426d21a048e47162fba6de228709573f999330b46654773",
	"kaggle/baseline/int8/sgd/d1":                   "2b3f7b60e6a5117c2426d21a048e47162fba6de228709573f999330b46654773",
	"kaggle/hotline/fp32/adagrad/d1":                "c2d89def77f2abce565500cf4e08b2a8db0d0d3ce83feda205d4e4fb665da70a",
	"kaggle/hotline/fp32/adagrad/d4":                "c2d89def77f2abce565500cf4e08b2a8db0d0d3ce83feda205d4e4fb665da70a",
	"kaggle/hotline/fp32/sgd/d1":                    "c2d89def77f2abce565500cf4e08b2a8db0d0d3ce83feda205d4e4fb665da70a",
	"kaggle/hotline/fp32/sgd/d4":                    "c2d89def77f2abce565500cf4e08b2a8db0d0d3ce83feda205d4e4fb665da70a",
	"kaggle/hotline/hot-fp32+warm-int8/adagrad/d1":  "543c3ce0bea714cfabf06841fb30d6ccc100fec11a1d98adf6c6a666bb578023",
	"kaggle/hotline/hot-fp32+warm-int8/adagrad/d4":  "543c3ce0bea714cfabf06841fb30d6ccc100fec11a1d98adf6c6a666bb578023",
	"kaggle/hotline/hot-fp32+warm-int8/sgd/d1":      "543c3ce0bea714cfabf06841fb30d6ccc100fec11a1d98adf6c6a666bb578023",
	"kaggle/hotline/hot-fp32+warm-int8/sgd/d4":      "543c3ce0bea714cfabf06841fb30d6ccc100fec11a1d98adf6c6a666bb578023",
	"kaggle/hotline/int8/adagrad/d1":                "2b3f7b60e6a5117c2426d21a048e47162fba6de228709573f999330b46654773",
	"kaggle/hotline/int8/adagrad/d4":                "2b3f7b60e6a5117c2426d21a048e47162fba6de228709573f999330b46654773",
	"kaggle/hotline/int8/sgd/d1":                    "2b3f7b60e6a5117c2426d21a048e47162fba6de228709573f999330b46654773",
	"kaggle/hotline/int8/sgd/d4":                    "2b3f7b60e6a5117c2426d21a048e47162fba6de228709573f999330b46654773",
	"synmh/baseline/fp32/adagrad/d1":                "40ead7373ef654bfe9043a52cae812a0bd87aece8e15b78541e60d847265f1e6",
	"synmh/baseline/fp32/sgd/d1":                    "40ead7373ef654bfe9043a52cae812a0bd87aece8e15b78541e60d847265f1e6",
	"synmh/baseline/hot-fp32+warm-int8/adagrad/d1":  "6d9b579eeaf4da0ed68717930a7cd194f342eb8354d5079ae2a4801491d0ec9f",
	"synmh/baseline/hot-fp32+warm-int8/sgd/d1":      "6d9b579eeaf4da0ed68717930a7cd194f342eb8354d5079ae2a4801491d0ec9f",
	"synmh/baseline/int8/adagrad/d1":                "ca6eab053d9d5859ae45ce918da6578e0a2ad05a608141d0eecf654f6bb722d0",
	"synmh/baseline/int8/sgd/d1":                    "ca6eab053d9d5859ae45ce918da6578e0a2ad05a608141d0eecf654f6bb722d0",
	"synmh/hotline/fp32/adagrad/d1":                 "73ba85e0c9e9d5f34c33def49d29e3a1a849fe71f3666b5776b10259bb34f47d",
	"synmh/hotline/fp32/adagrad/d4":                 "5f34ab6af55ca62c4ce6b4664a831cd92b42124877a1172f1ed214231a78d0fd",
	"synmh/hotline/fp32/sgd/d1":                     "73ba85e0c9e9d5f34c33def49d29e3a1a849fe71f3666b5776b10259bb34f47d",
	"synmh/hotline/fp32/sgd/d4":                     "5f34ab6af55ca62c4ce6b4664a831cd92b42124877a1172f1ed214231a78d0fd",
	"synmh/hotline/hot-fp32+warm-int8/adagrad/d1":   "c0e5a4445e21ca3603aa8da9aefe952e0791c617d1e41b957cf097b6ca095646",
	"synmh/hotline/hot-fp32+warm-int8/adagrad/d4":   "bfde220bf8a72f0c2a433c9b2e55591f7220026f59f3086012b86e74dd3f18e1",
	"synmh/hotline/hot-fp32+warm-int8/sgd/d1":       "c0e5a4445e21ca3603aa8da9aefe952e0791c617d1e41b957cf097b6ca095646",
	"synmh/hotline/hot-fp32+warm-int8/sgd/d4":       "bfde220bf8a72f0c2a433c9b2e55591f7220026f59f3086012b86e74dd3f18e1",
	"synmh/hotline/int8/adagrad/d1":                 "02e5e73e810e3ae029f922fe37f488c8914bb1eb440bd030c06de8ee739f3f64",
	"synmh/hotline/int8/adagrad/d4":                 "6c34daa55d9d47918e3c60474310b93d28efa58a6fe4c9decaccb8777d068050",
	"synmh/hotline/int8/sgd/d1":                     "02e5e73e810e3ae029f922fe37f488c8914bb1eb440bd030c06de8ee739f3f64",
	"synmh/hotline/int8/sgd/d4":                     "6c34daa55d9d47918e3c60474310b93d28efa58a6fe4c9decaccb8777d068050",
	"tbsm/baseline/fp32/adagrad/d1":                 "d1a2a1d7ddeed8dd175f0e85bdb08e02c0bacb55fbf092410ade88263b5678bd",
	"tbsm/baseline/fp32/sgd/d1":                     "d1a2a1d7ddeed8dd175f0e85bdb08e02c0bacb55fbf092410ade88263b5678bd",
	"tbsm/baseline/hot-fp32+warm-int8/adagrad/d1":   "2d3118a43e1bb08478fa33ead8c0edfbe4d502396666407ca75043c03633d88b",
	"tbsm/baseline/hot-fp32+warm-int8/sgd/d1":       "2d3118a43e1bb08478fa33ead8c0edfbe4d502396666407ca75043c03633d88b",
	"tbsm/baseline/int8/adagrad/d1":                 "a8e767f3a6c75ab649aa6cd236a5a9e4336f1876f6ce681f375a2038b27b7da4",
	"tbsm/baseline/int8/sgd/d1":                     "a8e767f3a6c75ab649aa6cd236a5a9e4336f1876f6ce681f375a2038b27b7da4",
	"tbsm/hotline/fp32/adagrad/d1":                  "ad8b1a380ccd4ebc49768d38d9f7164e4d9ba638c0a83a26eea36b03ab2d9298",
	"tbsm/hotline/fp32/adagrad/d4":                  "3191e09b7d6d508664227347acf0f2e782c16662a4adacfa8c31f2d8b861c5a4",
	"tbsm/hotline/fp32/sgd/d1":                      "ad8b1a380ccd4ebc49768d38d9f7164e4d9ba638c0a83a26eea36b03ab2d9298",
	"tbsm/hotline/fp32/sgd/d4":                      "3191e09b7d6d508664227347acf0f2e782c16662a4adacfa8c31f2d8b861c5a4",
	"tbsm/hotline/hot-fp32+warm-int8/adagrad/d1":    "4f76878f30e6a3405f27bbac828e9e24ee07a2267045efe6d94522e0e1dec5bc",
	"tbsm/hotline/hot-fp32+warm-int8/adagrad/d4":    "c9565d65b66a8fd376b22f0766832b5f50e9edfc38c1af8f3d03c8d3aec13c7c",
	"tbsm/hotline/hot-fp32+warm-int8/sgd/d1":        "4f76878f30e6a3405f27bbac828e9e24ee07a2267045efe6d94522e0e1dec5bc",
	"tbsm/hotline/hot-fp32+warm-int8/sgd/d4":        "c9565d65b66a8fd376b22f0766832b5f50e9edfc38c1af8f3d03c8d3aec13c7c",
	"tbsm/hotline/int8/adagrad/d1":                  "77b71c656b039d067968c3a7b25865de67392ef28cca519a1791687295b2a658",
	"tbsm/hotline/int8/adagrad/d4":                  "eafb5acd69aa3c6906395ed3d62e6e12b53809e808dc532f9f9f353b0a61ceb7",
	"tbsm/hotline/int8/sgd/d1":                      "77b71c656b039d067968c3a7b25865de67392ef28cca519a1791687295b2a658",
	"tbsm/hotline/int8/sgd/d4":                      "eafb5acd69aa3c6906395ed3d62e6e12b53809e808dc532f9f9f353b0a61ceb7",
}

var serveCountDigests = map[string]string{
	"kaggle/baseline/fp32/adagrad/d1":               "aa55106e481ef369b782bfffa57cd08d7a8ad983ba46b8944afc3a6275206e81",
	"kaggle/baseline/fp32/sgd/d1":                   "aa55106e481ef369b782bfffa57cd08d7a8ad983ba46b8944afc3a6275206e81",
	"kaggle/baseline/hot-fp32+warm-int8/adagrad/d1": "73c8e8c6db3378d7ee22705b8f2e617428c1a9cc4aa4a712712713b11889d21a",
	"kaggle/baseline/hot-fp32+warm-int8/sgd/d1":     "73c8e8c6db3378d7ee22705b8f2e617428c1a9cc4aa4a712712713b11889d21a",
	"kaggle/baseline/int8/adagrad/d1":               "72238812bc1a69a5c106a63b50cc055c487dc61ab95d998d4b9d1aab09b11600",
	"kaggle/baseline/int8/sgd/d1":                   "72238812bc1a69a5c106a63b50cc055c487dc61ab95d998d4b9d1aab09b11600",
	"kaggle/hotline/fp32/adagrad/d1":                "aa55106e481ef369b782bfffa57cd08d7a8ad983ba46b8944afc3a6275206e81",
	"kaggle/hotline/fp32/adagrad/d4":                "aa55106e481ef369b782bfffa57cd08d7a8ad983ba46b8944afc3a6275206e81",
	"kaggle/hotline/fp32/sgd/d1":                    "aa55106e481ef369b782bfffa57cd08d7a8ad983ba46b8944afc3a6275206e81",
	"kaggle/hotline/fp32/sgd/d4":                    "aa55106e481ef369b782bfffa57cd08d7a8ad983ba46b8944afc3a6275206e81",
	"kaggle/hotline/hot-fp32+warm-int8/adagrad/d1":  "73c8e8c6db3378d7ee22705b8f2e617428c1a9cc4aa4a712712713b11889d21a",
	"kaggle/hotline/hot-fp32+warm-int8/adagrad/d4":  "73c8e8c6db3378d7ee22705b8f2e617428c1a9cc4aa4a712712713b11889d21a",
	"kaggle/hotline/hot-fp32+warm-int8/sgd/d1":      "73c8e8c6db3378d7ee22705b8f2e617428c1a9cc4aa4a712712713b11889d21a",
	"kaggle/hotline/hot-fp32+warm-int8/sgd/d4":      "73c8e8c6db3378d7ee22705b8f2e617428c1a9cc4aa4a712712713b11889d21a",
	"kaggle/hotline/int8/adagrad/d1":                "72238812bc1a69a5c106a63b50cc055c487dc61ab95d998d4b9d1aab09b11600",
	"kaggle/hotline/int8/adagrad/d4":                "72238812bc1a69a5c106a63b50cc055c487dc61ab95d998d4b9d1aab09b11600",
	"kaggle/hotline/int8/sgd/d1":                    "72238812bc1a69a5c106a63b50cc055c487dc61ab95d998d4b9d1aab09b11600",
	"kaggle/hotline/int8/sgd/d4":                    "72238812bc1a69a5c106a63b50cc055c487dc61ab95d998d4b9d1aab09b11600",
	"synmh/baseline/fp32/adagrad/d1":                "3ac52d850647735a896a1a152d4c4676533dccc2c79b19d14d57c8ffd64959ec",
	"synmh/baseline/fp32/sgd/d1":                    "3ac52d850647735a896a1a152d4c4676533dccc2c79b19d14d57c8ffd64959ec",
	"synmh/baseline/hot-fp32+warm-int8/adagrad/d1":  "7f37898bd7444d9d0901d86d82efd9e34c15409ec9561bb8c218281cd06442c8",
	"synmh/baseline/hot-fp32+warm-int8/sgd/d1":      "7f37898bd7444d9d0901d86d82efd9e34c15409ec9561bb8c218281cd06442c8",
	"synmh/baseline/int8/adagrad/d1":                "18c41ea0756913bc0b52b28423d1c1ef2db22daa5ace5d0c24750620941d26b2",
	"synmh/baseline/int8/sgd/d1":                    "18c41ea0756913bc0b52b28423d1c1ef2db22daa5ace5d0c24750620941d26b2",
	"synmh/hotline/fp32/adagrad/d1":                 "3ac52d850647735a896a1a152d4c4676533dccc2c79b19d14d57c8ffd64959ec",
	"synmh/hotline/fp32/adagrad/d4":                 "3ac52d850647735a896a1a152d4c4676533dccc2c79b19d14d57c8ffd64959ec",
	"synmh/hotline/fp32/sgd/d1":                     "3ac52d850647735a896a1a152d4c4676533dccc2c79b19d14d57c8ffd64959ec",
	"synmh/hotline/fp32/sgd/d4":                     "3ac52d850647735a896a1a152d4c4676533dccc2c79b19d14d57c8ffd64959ec",
	"synmh/hotline/hot-fp32+warm-int8/adagrad/d1":   "7f37898bd7444d9d0901d86d82efd9e34c15409ec9561bb8c218281cd06442c8",
	"synmh/hotline/hot-fp32+warm-int8/adagrad/d4":   "7f37898bd7444d9d0901d86d82efd9e34c15409ec9561bb8c218281cd06442c8",
	"synmh/hotline/hot-fp32+warm-int8/sgd/d1":       "7f37898bd7444d9d0901d86d82efd9e34c15409ec9561bb8c218281cd06442c8",
	"synmh/hotline/hot-fp32+warm-int8/sgd/d4":       "7f37898bd7444d9d0901d86d82efd9e34c15409ec9561bb8c218281cd06442c8",
	"synmh/hotline/int8/adagrad/d1":                 "18c41ea0756913bc0b52b28423d1c1ef2db22daa5ace5d0c24750620941d26b2",
	"synmh/hotline/int8/adagrad/d4":                 "64a19206e10b7ce2b57e6beded5c5f94881780d7b305aa1be4453a9d7e07e35c",
	"synmh/hotline/int8/sgd/d1":                     "18c41ea0756913bc0b52b28423d1c1ef2db22daa5ace5d0c24750620941d26b2",
	"synmh/hotline/int8/sgd/d4":                     "64a19206e10b7ce2b57e6beded5c5f94881780d7b305aa1be4453a9d7e07e35c",
	"tbsm/baseline/fp32/adagrad/d1":                 "790bbf89033ffc7dbb465a0644fa0b20c3742be13c8085625dab148e4112ab50",
	"tbsm/baseline/fp32/sgd/d1":                     "790bbf89033ffc7dbb465a0644fa0b20c3742be13c8085625dab148e4112ab50",
	"tbsm/baseline/hot-fp32+warm-int8/adagrad/d1":   "13e28a6da9e18fae18717b4fe91351019ece2d35d733fa34ed53f03a89afbe0a",
	"tbsm/baseline/hot-fp32+warm-int8/sgd/d1":       "13e28a6da9e18fae18717b4fe91351019ece2d35d733fa34ed53f03a89afbe0a",
	"tbsm/baseline/int8/adagrad/d1":                 "8a72b4615da54c82c49cf62b7b568b0bc5ceb32058b378d8129bd02ce879ee8d",
	"tbsm/baseline/int8/sgd/d1":                     "8a72b4615da54c82c49cf62b7b568b0bc5ceb32058b378d8129bd02ce879ee8d",
	"tbsm/hotline/fp32/adagrad/d1":                  "e82b6acc2099469ac31b4e166a14a42ff8e3e1f146bf4811f687fcfe6373d9d3",
	"tbsm/hotline/fp32/adagrad/d4":                  "e82b6acc2099469ac31b4e166a14a42ff8e3e1f146bf4811f687fcfe6373d9d3",
	"tbsm/hotline/fp32/sgd/d1":                      "e82b6acc2099469ac31b4e166a14a42ff8e3e1f146bf4811f687fcfe6373d9d3",
	"tbsm/hotline/fp32/sgd/d4":                      "e82b6acc2099469ac31b4e166a14a42ff8e3e1f146bf4811f687fcfe6373d9d3",
	"tbsm/hotline/hot-fp32+warm-int8/adagrad/d1":    "39f883f3e57190d041339c66259c25919d1c16347b9003c4e072c7e3a7980cb8",
	"tbsm/hotline/hot-fp32+warm-int8/adagrad/d4":    "39f883f3e57190d041339c66259c25919d1c16347b9003c4e072c7e3a7980cb8",
	"tbsm/hotline/hot-fp32+warm-int8/sgd/d1":        "39f883f3e57190d041339c66259c25919d1c16347b9003c4e072c7e3a7980cb8",
	"tbsm/hotline/hot-fp32+warm-int8/sgd/d4":        "39f883f3e57190d041339c66259c25919d1c16347b9003c4e072c7e3a7980cb8",
	"tbsm/hotline/int8/adagrad/d1":                  "a95b6a323319d69cddfbbfb0bebfa09e9fa9005308dc653fd42bd0703c271e3a",
	"tbsm/hotline/int8/adagrad/d4":                  "a95b6a323319d69cddfbbfb0bebfa09e9fa9005308dc653fd42bd0703c271e3a",
	"tbsm/hotline/int8/sgd/d1":                      "a95b6a323319d69cddfbbfb0bebfa09e9fa9005308dc653fd42bd0703c271e3a",
	"tbsm/hotline/int8/sgd/d4":                      "a95b6a323319d69cddfbbfb0bebfa09e9fa9005308dc653fd42bd0703c271e3a",
}

// digestCell is one training run of the digest grid.
type digestCell struct {
	dataset  string
	executor string // "baseline" or "hotline"
	depth    int    // the hotline executor's pipeline depth
	quant    shard.QuantMode
	rule     string // "sgd" or "adagrad"
	nodes    int    // 1: unsharded tables; more: a shard.Service of that many nodes
}

// class names the digest c must leave: depth and node count never change a
// bit, so they are not part of it.
func (c digestCell) class() string {
	return fmt.Sprintf("%s/%s/%s/%s", c.dataset, c.executor, c.quant, c.rule)
}

// countsKey names the counts a sharded cell must leave: the pipeline depth
// moves them (windows, repairs), the node count is always 4.
func (c digestCell) countsKey() string {
	return fmt.Sprintf("%s/d%d", c.class(), c.depth)
}

// runDigest trains c from fixed seeds and returns the SHA-256 of every
// state bit the run leaves: the dense parameters, every table's rows, the
// update rule's state, and the click probabilities a shadow serves for a
// fixed set of requests, each float32 as its four little-endian bytes. A
// sharded cell also returns the SHA-256 of each of its service's counter
// blocks, wall clocks zeroed: the training snapshot after the run and the
// serve snapshot after the requests. It runs on one worker, since the counts
// of concurrent µ-batch passes depend on scheduling (the bits do not); ""
// when unsharded.
func runDigest(t *testing.T, c digestCell) (state, trainCounts, serveCounts string) {
	t.Helper()
	const seed, steps, batch, requests = 7, 6, 100, 61
	cfg := digestDatasets[c.dataset]()
	batches := data.NewGenerator(cfg).NextBatches(steps, batch)
	reqCfg := cfg
	reqCfg.Seed++
	reqs := data.NewGenerator(reqCfg).NextBatch(requests)

	m := model.New(cfg, seed)
	if c.rule == "adagrad" {
		m.SetOptimizer(model.NewAdagrad)
	}
	var svc *shard.Service
	if c.nodes > 1 {
		defer par.SetWorkers(par.SetWorkers(1))
		const cache = 64 << 10
		var hot shard.HotClassifier
		if c.quant == shard.QuantMixed {
			hot = digestHotSet(c.dataset, cfg, cache/2)
		}
		svc = shard.New(shard.Config{
			Nodes: c.nodes, CacheBytes: cache, RowBytes: int64(cfg.EmbedDim) * 4, Quant: c.quant,
		}, hot)
		defer svc.Close()
	}
	var tr Trainer
	switch c.executor {
	case "baseline":
		if svc != nil {
			m.ShardEmbeddings(svc)
		}
		tr = NewBaseline(m, 0.05)
	case "hotline":
		var h *HotlineTrainer
		if svc != nil {
			h = NewHotlineSharded(m, 0.05, svc)
		} else {
			h = NewHotline(m, 0.05)
		}
		h.Depth, h.LearnSamples = c.depth, 2*batch
		tr = h
	}
	StepAll(tr, batches, nil)
	if c.quant == shard.QuantMixed && svc.Snapshot().QuantHits == 0 {
		t.Errorf("%s depth %d nodes %d: no warm-tier hit, the mixed cell trains as fp32", c.class(), c.depth, c.nodes)
	}

	h := sha256.New()
	for _, p := range m.DenseParams() {
		putFloats(h, p.Value.Data)
	}
	for _, b := range m.Tables {
		for r := range b.NumRows() {
			putFloats(h, b.RowView(r))
		}
	}
	for _, s := range m.RuleState() {
		putFloats(h, s.Data)
	}
	putFloats(h, model.NewShadow(m).ServePredictInto(nil, reqs))
	state = hex.EncodeToString(h.Sum(nil))
	if svc != nil {
		trainCounts = countsDigest(svc.Snapshot())
		serveCounts = countsDigest(svc.ServeSnapshot())
	}
	return state, trainCounts, serveCounts
}

// countsDigest is the SHA-256 of one counter block, wall clocks zeroed.
func countsDigest(st shard.Stats) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%+v", st.WithoutWall()))
	return hex.EncodeToString(sum[:])
}

// digestHotSets memoises digestHotSet per dataset.
var digestHotSets sync.Map

// digestHotSet is the mixed cells' classifier, learned as the benchmark
// learns its own: the exact fp32 hot set of a 512-sample-batch profile epoch
// at budget bytes. A nil classifier would count every row as hot and turn
// QuantMixed into all-fp32.
func digestHotSet(dataset string, cfg data.Config, budget int64) shard.HotClassifier {
	if p, ok := digestHotSets.Load(dataset); ok {
		return p.(*embedding.Placement)
	}
	prof := data.ProfileEpoch(data.NewGenerator(cfg), 512)
	p := embedding.PlacementFromCounts(prof.Counts(), cfg.NumTables, cfg.EmbedDim, budget)
	digestHotSets.Store(dataset, p)
	return p
}

func putFloats(h hash.Hash, vs []float32) {
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
}

// digestGrid is executor x depth {1, 4} x quant {off, int8, mixed} x rule {SGD,
// Adagrad} x nodes {1, 4} x dataset, less the cells that mean nothing: a
// quantized cache needs a sharded service, and the baseline executor has no
// pipeline depth. The mixed cells run on a learned classifier (digestHotSet)
// and fail when they serve no warm-tier hit.
func digestGrid() []digestCell {
	var cells []digestCell
	for _, ds := range []string{"kaggle", "synmh", "tbsm"} {
		for _, ex := range []string{"baseline", "hotline"} {
			for _, nodes := range []int{1, 4} {
				for _, q := range []shard.QuantMode{shard.QuantOff, shard.QuantINT8, shard.QuantMixed} {
					if q != shard.QuantOff && nodes == 1 {
						continue
					}
					for _, depth := range []int{1, 4} {
						if depth > 1 && ex == "baseline" {
							continue
						}
						for _, rule := range []string{"sgd", "adagrad"} {
							cells = append(cells, digestCell{ds, ex, depth, q, rule, nodes})
						}
					}
				}
			}
		}
	}
	return cells
}

// TestTrainingRunDigest pins whole training runs bit for bit across builds
// and kernel paths: the dense kernels' assembly bodies and their generic
// loops (which a GOARCH=386 build takes everywhere) must each leave exactly
// the state in runDigests. Each kernel is compared with its own reference
// elsewhere; this catches two kernels that disagree where they meet, and a
// change to a chain that a kernel and its reference share. Each sharded
// cell's training and serve counters must also leave their entries in
// trainCountDigests and serveCountDigests. -short runs every third cell of
// the grid.
func TestTrainingRunDigest(t *testing.T) {
	for i, c := range digestGrid() {
		if testing.Short() && i%3 != 0 {
			continue
		}
		state, trainCounts, serveCounts := runDigest(t, c)
		if want := runDigests[c.class()]; state != want {
			t.Errorf("%s depth %d nodes %d: state digest %s, want %s", c.class(), c.depth, c.nodes, state, want)
		}
		if c.nodes == 1 {
			continue
		}
		if want := trainCountDigests[c.countsKey()]; trainCounts != want {
			t.Errorf("%s nodes %d: training counts digest %s, want %s", c.countsKey(), c.nodes, trainCounts, want)
		}
		if want := serveCountDigests[c.countsKey()]; serveCounts != want {
			t.Errorf("%s nodes %d: serve counts digest %s, want %s", c.countsKey(), c.nodes, serveCounts, want)
		}
	}
}
