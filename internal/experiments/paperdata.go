package experiments

// The paper's published numbers (Tables 2–4 of Munteanu et al., DSN
// 2003), embedded so regenerated tables print measured-vs-paper side
// by side. Values are transcribed from the archival copy as printed;
// where the copy is internally inconsistent (e.g. the MS4 coded-ROBDD
// size appears as 243,254 in Table 3 and 243,154 in Table 4) both are
// kept in their respective tables.

func cell(n int) Cell { return Cell{Size: n} }
func failed() Cell    { return Cell{Failed: true} }

// paperTable2: ROMDD sizes per MV ordering (ε as in the paper; our
// runs use Config's calibrated ε = 2e-3 giving the same M values).
var paperTable2 = map[Case]map[string]Cell{
	{"MS2", 1}:     {"wv": cell(3202), "wvr": cell(2034), "vw": cell(2035), "vrw": cell(73405), "t": cell(3202), "w": cell(2034), "h": cell(3202)},
	{"MS4", 1}:     {"wv": cell(28392), "wvr": cell(22760), "vw": cell(22761), "vrw": cell(882505), "t": cell(28392), "w": cell(22760), "h": cell(28392)},
	{"MS6", 1}:     {"wv": cell(119260), "wvr": cell(103228), "vw": cell(103229), "vrw": cell(3989917), "t": cell(119260), "w": cell(103228), "h": cell(119260)},
	{"MS8", 1}:     {"wv": cell(344320), "wvr": cell(309136), "vw": cell(309137), "vrw": failed(), "t": cell(344320), "w": cell(309136), "h": cell(344320)},
	{"MS10", 1}:    {"wv": cell(797908), "wvr": cell(731748), "vw": cell(731749), "vrw": failed(), "t": cell(797908), "w": cell(731748), "h": cell(797908)},
	{"MS2", 2}:     {"wv": cell(25038), "wvr": cell(7534), "vw": cell(7535), "vrw": failed(), "t": cell(25038), "w": cell(7534), "h": cell(25038)},
	{"MS4", 2}:     {"wv": cell(1345390), "wvr": failed(), "vw": failed(), "vrw": failed(), "t": cell(1345350), "w": cell(635530), "h": cell(1345350)},
	{"ESEN4x1", 1}: {"wv": cell(5090), "wvr": cell(3046), "vw": cell(3047), "vrw": cell(190059), "t": cell(5090), "w": cell(3046), "h": cell(5090)},
	{"ESEN4x2", 1}: {"wv": cell(11031), "wvr": cell(6995), "vw": cell(6996), "vrw": cell(486205), "t": cell(11031), "w": cell(6995), "h": cell(11031)},
	{"ESEN4x4", 1}: {"wv": cell(29391), "wvr": cell(19547), "vw": cell(19548), "vrw": cell(1469685), "t": cell(29391), "w": cell(19547), "h": cell(29391)},
	{"ESEN8x1", 1}: {"wv": cell(169764), "wvr": cell(134512), "vw": cell(134513), "vrw": failed(), "t": cell(169764), "w": cell(134512), "h": cell(169764)},
	{"ESEN8x2", 1}: {"wv": cell(373117), "wvr": cell(303657), "vw": cell(303658), "vrw": failed(), "t": cell(373117), "w": cell(303657), "h": cell(373117)},
	{"ESEN4x1", 2}: {"wv": cell(38594), "wvr": cell(11666), "vw": cell(11667), "vrw": failed(), "t": cell(38594), "w": cell(11666), "h": cell(38594)},
	{"ESEN4x2", 2}: {"wv": cell(97671), "wvr": cell(30783), "vw": cell(30784), "vrw": failed(), "t": cell(67671), "w": cell(30783), "h": cell(97671)},
	{"ESEN4x4", 2}: {"wv": cell(296175), "wvr": cell(96231), "vw": cell(96232), "vrw": failed(), "t": failed(), "w": cell(96231), "h": failed()},
}

// paperTable3: coded-ROBDD sizes per bit-group ordering under the
// weight MV ordering.
var paperTable3 = map[Case]map[string]Cell{
	{"MS2", 1}:     {"ml": cell(24237), "lm": cell(28418), "w": cell(28418)},
	{"MS4", 1}:     {"ml": cell(243254), "lm": cell(236915), "w": cell(236915)},
	{"MS6", 1}:     {"ml": cell(1120255), "lm": cell(1290274), "w": cell(1290274)},
	{"MS8", 1}:     {"ml": cell(3154056), "lm": cell(3283401), "w": cell(3283401)},
	{"MS10", 1}:    {"ml": cell(7954261), "lm": cell(10019092), "w": cell(10019092)},
	{"MS2", 2}:     {"ml": cell(361428), "lm": cell(439700), "w": cell(439700)},
	{"MS4", 2}:     {"ml": cell(11885214), "lm": cell(11492704), "w": cell(11492704)},
	{"ESEN4x1", 1}: {"ml": cell(19338), "lm": cell(20721), "w": cell(20721)},
	{"ESEN4x2", 1}: {"ml": cell(54705), "lm": cell(65208), "w": cell(65208)},
	{"ESEN4x4", 1}: {"ml": cell(184332), "lm": cell(283338), "w": cell(283338)},
	{"ESEN8x1", 1}: {"ml": cell(904777), "lm": cell(972506), "w": cell(972506)},
	{"ESEN8x2", 1}: {"ml": cell(2244340), "lm": cell(2796165), "w": cell(2796165)},
	{"ESEN4x1", 2}: {"ml": cell(105511), "lm": cell(109692), "w": cell(109692)},
	{"ESEN4x2", 2}: {"ml": cell(378686), "lm": cell(414939), "w": cell(414939)},
	{"ESEN4x4", 2}: {"ml": cell(1513441), "lm": cell(2117587), "w": cell(2117587)},
}

// paperTable4: CPU seconds (Sun-Blade-1000), ROBDD peak, final coded
// ROBDD, ROMDD, and yield, for MV ordering w and bit ordering ml.
var paperTable4 = map[Case]PaperPerf{
	{"MS2", 1}:     {CPUSeconds: 0.98, Peak: 30987, ROBDD: 24237, ROMDD: 2034, Yield: 0.944},
	{"MS4", 1}:     {CPUSeconds: 6.23, Peak: 427130, ROBDD: 243154, ROMDD: 22760, Yield: 0.965},
	{"MS6", 1}:     {CPUSeconds: 66.4, Peak: 2564600, ROBDD: 1120255, ROMDD: 103228, Yield: 0.975},
	{"MS8", 1}:     {CPUSeconds: 262.1, Peak: 7518549, ROBDD: 3154056, ROMDD: 309136, Yield: 0.980},
	{"MS10", 1}:    {CPUSeconds: 862.2, Peak: 20344432, ROBDD: 7954261, ROMDD: 731748, Yield: 0.984},
	{"MS2", 2}:     {CPUSeconds: 3.59, Peak: 124067, ROBDD: 116960, ROMDD: 7534, Yield: 0.830},
	{"MS4", 2}:     {CPUSeconds: 827.7, Peak: 14175238, ROBDD: 11885214, ROMDD: 635530, Yield: 0.885},
	{"ESEN4x1", 1}: {CPUSeconds: 0.86, Peak: 37231, ROBDD: 19338, ROMDD: 3046, Yield: 0.910},
	{"ESEN4x2", 1}: {CPUSeconds: 2.72, Peak: 200272, ROBDD: 54705, ROMDD: 6995, Yield: 0.848},
	{"ESEN4x4", 1}: {CPUSeconds: 14.64, Peak: 368815, ROBDD: 184332, ROMDD: 19547, Yield: 0.829},
	{"ESEN8x1", 1}: {CPUSeconds: 172.85, Peak: 6544206, ROBDD: 904777, ROMDD: 134512, Yield: 0.881},
	{"ESEN8x2", 1}: {CPUSeconds: 1060.7, Peak: 29926091, ROBDD: 2244340, ROMDD: 303657, Yield: 0.835},
	{"ESEN4x1", 2}: {CPUSeconds: 3.47, Peak: 143633, ROBDD: 105511, ROMDD: 11666, Yield: 0.756},
	{"ESEN4x2", 2}: {CPUSeconds: 18.34, Peak: 757529, ROBDD: 378686, ROMDD: 30783, Yield: 0.642},
	{"ESEN4x4", 2}: {CPUSeconds: 108.52, Peak: 3027309, ROBDD: 1513441, ROMDD: 96231, Yield: 0.605},
}

// PaperTable4 exposes the published Table 4 row for a case.
func PaperTable4(c Case) (PaperPerf, bool) { v, ok := paperTable4[c]; return v, ok }
