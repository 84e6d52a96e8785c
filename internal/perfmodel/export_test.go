package perfmodel

// The tests that run a deployment through the simulator live in package
// perfmodel_test (sim_test.go): the harness, autotune.ShortRun, imports
// this package. These names hand them the internal tests' helpers.

var (
	TinySpec        = tinySpec
	PPSpec          = ppSpec
	ValidDeployment = validDeployment
	PPDeployment    = ppDeployment
	FullDeployment  = fullDeployment
	SerialSync      = serialSync
)

// BoundarySends is the number of stage-boundary sends the walk books in
// one step.
func BoundarySends(d Deployment, spec ModelSpec) int { return len(d.walk(spec).arrive) }

// LastGroupSync prices alone, on idle ports from time 0, the last
// gradient group stage 0's representative issues: block 0's dense part
// with the embeddings (its experts' group follows it in the list).
func LastGroupSync(d Deployment, spec ModelSpec) float64 {
	w := d.walk(spec)
	r := w.ranks[0]
	return isolated(w, r.stage, r.groups[len(r.groups)-2].n)
}
