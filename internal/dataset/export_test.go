package dataset

// WriteLongSection lends the reference writer of the long form to the
// tests of package dataset_test, which sweep through packages that import
// this one.
var WriteLongSection = writeLongSection
