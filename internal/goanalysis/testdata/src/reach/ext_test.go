package reach_test

import "testing"

// Cited, qualified by the package under test, by the oracle waiver on
// citedOracle.
func FuzzOracleCited(f *testing.F) {}
