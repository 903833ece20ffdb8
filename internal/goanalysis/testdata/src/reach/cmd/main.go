// Caller for the reach golden corpus: a main package whose only job is
// to use reach.Exported, as bench/ and examples/ use the module's API.
package main

import "reach"

// Negative: main is the entry point.
func main() { println(reach.Exported()) }
