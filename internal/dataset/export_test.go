package dataset

// The reference writer of the long form and the fixture committed in it,
// lent to the tests of package dataset_test, which sweep through packages
// that import this one.
var (
	WriteLongSection = writeLongSection
	LongFormFixture  = longFormFixture
)
