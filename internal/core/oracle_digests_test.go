package core

// parentDigests holds TestParentDigestOracle's expected
// {factors, solutions, clock, comm} digests per generator/p/method. The
// factors and solutions columns were computed at commit f3c2256 — the
// parent of the PR that made the factorization driver, the triangular
// sweep and the row-kernel API one definition each — and have not moved
// since. The clock and comm columns were regenerated, alone, when the
// triangular sweeps went from one all-gather per level to the
// neighbour-exchange plan (the factor run gained the plan's request
// exchange, the solve runs trade their collectives for messages), and
// again, alone, when a level's independent set went from 22 blocking
// points to 14: every factor run lost one collective and a third of its
// MIS messages per level; and again, alone, when every halo exchange moved
// onto one plan (pcomm.Halo): the MIS set-up's requests go point to point
// and the pivot rows as two raw messages per neighbour and level.
var parentDigests = map[string][4]string{
	"grid2d/p1/ilut":       {"39b3619daa254bc8", "ae566bab0603fc90", "8af425e3482bec9c", "5f6e2f41d71f39d0"},
	"grid2d/p1/ilutstar":   {"39b3619daa254bc8", "ae566bab0603fc90", "8af425e3482bec9c", "5f6e2f41d71f39d0"},
	"grid2d/p1/ilu0":       {"065281fb992c21ef", "3bc741dabc2627cb", "285c5c33ba14b43e", "5f6e2f41d71f39d0"},
	"grid2d/p2/ilut":       {"2ab148821677bb5e", "aefb621f771ee945", "a86ccef2f2332a94", "7498d971dc2dc0d9"},
	"grid2d/p2/ilutstar":   {"38b385d854d305df", "aefb621f771ee945", "776e701e07c3c251", "7498d971dc2dc0d9"},
	"grid2d/p2/ilu0":       {"538701eb8e9aad71", "5a0077cd39002fe8", "e7d2134890a16e71", "006599ca7706a033"},
	"grid2d/p4/ilut":       {"17177c5b0bcbf2ba", "15b413af00b9cdaa", "791c8dcfa423ffab", "a2b44b38f0aeeca7"},
	"grid2d/p4/ilutstar":   {"5f7c246564abb56f", "c79c350d8cfa731b", "19d2f4462ec50841", "c4ccbb4b57f2f35c"},
	"grid2d/p4/ilu0":       {"ab70d949e5d9427a", "7396dd6de9c38942", "04874491333b2b37", "46a9938bb3dfc2c4"},
	"grid2d/p8/ilut":       {"2d3d2e01a6d5d7aa", "495c89f7b9b2e8ab", "3460093f67f4f878", "03d994939aefc80b"},
	"grid2d/p8/ilutstar":   {"5dc8176c9e93f933", "c8b1069065f1fdf1", "35903afb474780f6", "679f799f698cb296"},
	"grid2d/p8/ilu0":       {"0f3f865cd8950e18", "a2a5fc5cd5516d4e", "b75b46000b5875dd", "6b5819671cf5f93b"},
	"grid3d/p1/ilut":       {"49a077c4450201de", "0e28ab8938c5b19e", "a301bd9b064d84b6", "5f6e2f41d71f39d0"},
	"grid3d/p1/ilutstar":   {"49a077c4450201de", "0e28ab8938c5b19e", "a301bd9b064d84b6", "5f6e2f41d71f39d0"},
	"grid3d/p1/ilu0":       {"475775d30083fe4c", "395b7a88f6a73a2b", "4f3dd19221fb4b32", "5f6e2f41d71f39d0"},
	"grid3d/p2/ilut":       {"e857bd6b292b23a6", "8d11a961e04f752a", "fa213177cff767b9", "b4e34490db8fb060"},
	"grid3d/p2/ilutstar":   {"f1c09e071d896dfb", "1e1ebe0f93c5e494", "9ec19dbc5c37f8e9", "2fb6a19045ef1ff3"},
	"grid3d/p2/ilu0":       {"255b6cf6d6aef77c", "5679037280527972", "0649028148ab7071", "7129b40b4f3f027c"},
	"grid3d/p4/ilut":       {"74ae10aa5b85cc5b", "3605acff1e027a8c", "b6facaefba8b334c", "6b1acf0719c2e5fb"},
	"grid3d/p4/ilutstar":   {"7373d5ebf27806a2", "860803e4c900dde6", "a9625d59b5683bfe", "5c0498b3684b5156"},
	"grid3d/p4/ilu0":       {"53d918c8d1ba95a3", "505bc10df25d67cd", "e29af6197e53dfd8", "40132f35b81f7fa8"},
	"grid3d/p8/ilut":       {"7d5972db79ff4c94", "74dd4086f604b1dd", "a841d263fe028221", "4eb0095f1ccaefae"},
	"grid3d/p8/ilutstar":   {"c00cdf4f5327e3e4", "6e20bf43c0203a30", "9df99dd720a7b201", "5bc5df7200d8e9ed"},
	"grid3d/p8/ilu0":       {"d3d2adf8aa1883cf", "5fbb68f1f81708e6", "0489bc5299983905", "417ee7702d59c114"},
	"torso/p1/ilut":        {"f6db258a9f580e2e", "a6480e2c4f96e94d", "9e6ae8888c676216", "5f6e2f41d71f39d0"},
	"torso/p1/ilutstar":    {"f6db258a9f580e2e", "a6480e2c4f96e94d", "9e6ae8888c676216", "5f6e2f41d71f39d0"},
	"torso/p1/ilu0":        {"523d2e43823bb726", "ead7574ec8f54701", "ad21e650e6a0fe0b", "5f6e2f41d71f39d0"},
	"torso/p2/ilut":        {"0abcab85f15703fc", "9530bec11b65deb4", "27d45cfb9b1fdb6d", "a3ee8eeb4802397d"},
	"torso/p2/ilutstar":    {"7a3f81127552b6c3", "41da75816984f3f4", "7fed54e27469ef60", "50ff67178ea1b879"},
	"torso/p2/ilu0":        {"fced5164bfe98296", "875491788e937c37", "4a332ea487550952", "2e136f714ec15920"},
	"torso/p4/ilut":        {"70fb9965b1e6cc8f", "1cd756a2ec756986", "d77a7b77727480e5", "b51895e38c95653c"},
	"torso/p4/ilutstar":    {"b8e6737de5aae972", "319abea0adad9553", "28903411a772f743", "411bef4b9df46d44"},
	"torso/p4/ilu0":        {"f67038a245eec4c8", "ca5cda8943b62f43", "21e4a985abc57c6c", "729c496244ed0416"},
	"torso/p8/ilut":        {"7e8b32f1084bb968", "4d1351983f71e3eb", "259545c4c76c0863", "a3203726aabd5b60"},
	"torso/p8/ilutstar":    {"45038b96d17afc53", "e337a985244b0a32", "b031b556c5429e1e", "918e6ae9216691e8"},
	"torso/p8/ilu0":        {"971b07aa223aa4f8", "f7a91bb545cac9ed", "ddec44f4ca8d1979", "f59692d4975aca0f"},
	"convdiff/p1/ilut":     {"ea10c4601dd0bf57", "5d6634fbf21c8a1b", "2fb01b65421078a2", "5f6e2f41d71f39d0"},
	"convdiff/p1/ilutstar": {"ea10c4601dd0bf57", "5d6634fbf21c8a1b", "2fb01b65421078a2", "5f6e2f41d71f39d0"},
	"convdiff/p1/ilu0":     {"ae771d8b7ce2ae45", "01c77c049e6f027b", "285c5c33ba14b43e", "5f6e2f41d71f39d0"},
	"convdiff/p2/ilut":     {"a1e31b9750470d1a", "06c67bbacddc7526", "0d8302765dda5b8a", "82a8234ace49d3ad"},
	"convdiff/p2/ilutstar": {"95fb3d198f1a6809", "2e2fbad530fe028f", "04188e4a70946373", "82a8234ace49d3ad"},
	"convdiff/p2/ilu0":     {"fbd59d45673ab22a", "af75f66a9ece47cb", "e7d2134890a16e71", "006599ca7706a033"},
	"convdiff/p4/ilut":     {"0f6986be6de8c8dc", "f64ac78b6da906b3", "7e77d0bdbe1c3841", "b3994869ea06a2b9"},
	"convdiff/p4/ilutstar": {"e4c9856de1a688a4", "c55b98e6dfa8ab35", "2c2ea888257c415a", "ef7d152a4dcc3c23"},
	"convdiff/p4/ilu0":     {"81e247f78b24b05c", "b03d8da0baafc0fe", "04874491333b2b37", "46a9938bb3dfc2c4"},
	"convdiff/p8/ilut":     {"725004b66497166c", "c9d3f95bff8de3c4", "be85702a2138ef48", "85295fb5443ef27b"},
	"convdiff/p8/ilutstar": {"6239f7cca60ff285", "8b359178f93c7826", "581752f43b831a4e", "a587cb02614fa8b3"},
	"convdiff/p8/ilu0":     {"5d304a2f9c23368d", "1e14a5e12013f730", "b75b46000b5875dd", "6b5819671cf5f93b"},
	"aniso/p1/ilut":        {"7345132a90acb2ef", "2921fa37f484bff1", "5a03d5a77c23426c", "5f6e2f41d71f39d0"},
	"aniso/p1/ilutstar":    {"7345132a90acb2ef", "2921fa37f484bff1", "5a03d5a77c23426c", "5f6e2f41d71f39d0"},
	"aniso/p1/ilu0":        {"828cf3b0f89a67cc", "b24de6f2360f0714", "285c5c33ba14b43e", "5f6e2f41d71f39d0"},
	"aniso/p2/ilut":        {"6bec97d39a2cb237", "e28fa69f97d42640", "e9c754527f3c3536", "0ead9ff0e6886394"},
	"aniso/p2/ilutstar":    {"6bec97d39a2cb237", "e28fa69f97d42640", "e9c754527f3c3536", "0ead9ff0e6886394"},
	"aniso/p2/ilu0":        {"2c9db66a11bc36cc", "f1bc17c88735c0dc", "e7d2134890a16e71", "006599ca7706a033"},
	"aniso/p4/ilut":        {"9998aa7537e5dc92", "e892950506a5d967", "5af967cb6f8af098", "dc4d622fc8345d99"},
	"aniso/p4/ilutstar":    {"9998aa7537e5dc92", "e892950506a5d967", "5af967cb6f8af098", "dc4d622fc8345d99"},
	"aniso/p4/ilu0":        {"ff72c22a537fbcb5", "86cc4ac90d8a52f9", "04874491333b2b37", "46a9938bb3dfc2c4"},
	"aniso/p8/ilut":        {"6b498741aa1fb4a4", "67eb72c590b88edf", "5e7e6aa900df0a65", "7c8bd93f2c04b5e1"},
	"aniso/p8/ilutstar":    {"6b498741aa1fb4a4", "67eb72c590b88edf", "5e7e6aa900df0a65", "7c8bd93f2c04b5e1"},
	"aniso/p8/ilu0":        {"6bdcaa05f4006367", "720ccbe4a46e5949", "b75b46000b5875dd", "6b5819671cf5f93b"},
	"randspd/p1/ilut":      {"2fc2ea9dbf0e95e0", "88a5ca41eee00e0d", "fe81b0b7968241ba", "5f6e2f41d71f39d0"},
	"randspd/p1/ilutstar":  {"2fc2ea9dbf0e95e0", "88a5ca41eee00e0d", "fe81b0b7968241ba", "5f6e2f41d71f39d0"},
	"randspd/p1/ilu0":      {"e857c12646d39961", "6c80186e01ae3ed1", "63a1f6aa57e2b5cb", "5f6e2f41d71f39d0"},
	"randspd/p2/ilut":      {"2a9646d0678d2524", "8bb90b65a8c82e49", "c90609b8e33857a4", "f8b0d103a8d970d0"},
	"randspd/p2/ilutstar":  {"aae17875ef0a9b24", "7b04f08d1b8563f3", "ed1eec8c3972b31d", "4e331a896a87ae08"},
	"randspd/p2/ilu0":      {"a80ede8049783802", "d1e196c4695d91fd", "1e17618daeaa330c", "4e24f2f2a9a9eff2"},
	"randspd/p4/ilut":      {"7378c7dc6ee334d5", "1b9d43f6a6f4e9c9", "3701fc0a6b46f562", "909d7ea3df5ac51c"},
	"randspd/p4/ilutstar":  {"7f8d5b7ac7edbf77", "2fb8054cbbf91569", "2c3392eabe172afe", "612a6b1ad5569b12"},
	"randspd/p4/ilu0":      {"89ae7877019acf66", "ff7978404cca3b28", "3b0d461cddade5ca", "898be361320c28c1"},
	"randspd/p8/ilut":      {"9c8792e88ee32c3b", "20bcd4c59e7a99a3", "f2ba6fc13ea517e8", "94c451468a3b3003"},
	"randspd/p8/ilutstar":  {"0e7ea568426b06eb", "1bcbf7b49d387155", "d1811aac79e53540", "011b02931f068df7"},
	"randspd/p8/ilu0":      {"d1a7a4a42ea535b0", "677e9e373f22f736", "3d119fb3ccccee39", "58387cd8e45bfb6f"},
}
