//go:build race

package cluster

// Under the race detector the encoder's buffer grows in more steps than in
// a plain build (20 allocations for TestShardMapCodecRoundTrip's, not 18).
func init() { raceBuild = true }
