package core

// ReferenceRecords exposes the reference campaign loop to the core_test
// package, whose oracle compares it with grids built by experiments.
var ReferenceRecords = referenceRecords
