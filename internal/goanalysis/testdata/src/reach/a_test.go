package reach

import "testing"

// Cited by the oracle waiver on citedOracle.
func TestOracleCited(t *testing.T) {}
