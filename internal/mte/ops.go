package mte

// TagStoreOp names one of the tag-setting store instructions benchmarked
// in paper Table 4 / Fig. 16. The variants differ in how many granules a
// single instruction tags and whether it also zeroes the data bytes.
type TagStoreOp int

const (
	// OpSTG tags one granule, data untouched.
	OpSTG TagStoreOp = iota
	// OpST2G tags two granules, data untouched.
	OpST2G
	// OpSTZG tags one granule and zeroes its 16 data bytes.
	OpSTZG
	// OpST2ZG tags two granules and zeroes their 32 data bytes.
	OpST2ZG
	// OpSTGP tags one granule and stores a 16-byte register pair.
	OpSTGP
)

// String returns the instruction mnemonic.
func (op TagStoreOp) String() string {
	switch op {
	case OpSTG:
		return "stg"
	case OpST2G:
		return "st2g"
	case OpSTZG:
		return "stzg"
	case OpST2ZG:
		return "st2zg"
	case OpSTGP:
		return "stgp"
	default:
		return "tagstore(?)"
	}
}

// Granules is the number of 16-byte granules a single instruction covers.
func (op TagStoreOp) Granules() int {
	if op == OpST2G || op == OpST2ZG {
		return 2
	}
	return 1
}

// ZeroesData reports whether the instruction also initializes the data
// bytes (so no separate memset is needed).
func (op TagStoreOp) ZeroesData() bool {
	return op == OpSTZG || op == OpST2ZG || op == OpSTGP
}
