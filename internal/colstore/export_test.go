package colstore

// Seams for package colstore_test, whose reference tests import
// internal/analysis — an importer of colstore, so they cannot live in this
// package.
var (
	RandomDomains = randomDomains
	BuildIndex    = buildIndex
	RefSnapshot   = refSnapshot
)

const AggShardMin = aggShardMin
