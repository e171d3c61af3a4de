package experiments

// Campaign is one runnable evaluation: a table or figure of the paper's §6,
// or one of the extensions measured beside it.
type Campaign struct {
	Name string
	Run  func(Options) *Result
	// Paper campaigns make up the default run; the others run only when
	// named.
	Paper bool
}

// Campaigns lists every campaign, the paper's in paper order first.
var Campaigns = []Campaign{
	{"table1", Table1, true},
	{"fig4", Figure4, true},
	{"fig5", Figure5, true},
	{"fig7", Figure7, true},
	{"fig9", Figure9, true},
	{"fig11", Figure11, true},
	{"fig12", Figure12, true},
	{"table2", Table2, true},
	{"table3", Table3, true},
	{"fig13", Figure13, true},
	// Traced: the paper tables above are measured untraced.
	{"breakdown", LatencyBreakdown, false},
	{"steering", SteeringSkew, false},
	{"attack", GoodputUnderAttack, false},
	{"cluster", ClusterScale, false},
	{"connscale", ConnScale, false},
	{"ipc", IPCFastPath, false},
	{"matrix", FaultMatrix, false},
}
