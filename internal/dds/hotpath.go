package dds

// HotPaths lists this package's //dsd:hotpath kernels by declaration
// name. The hotbench analyzer proves the list matches the marked
// functions exactly, and hotpath_test.go drives every entry under
// testing.AllocsPerRun to corroborate the static zero-alloc claim
// dynamically.
func HotPaths() []string {
	return []string{
		"peelState.removes",
		"peelState.peel",
		"peelState.peelMin",
		"peelState.scan",
		"peelState.scanBlock",
		"peelState.drain",
		"peelState.applyBlock",
		"peelState.recheckBlock",
		"peelState.claim",
	}
}
