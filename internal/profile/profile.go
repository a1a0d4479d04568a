// Package profile is a benchmark-only leftover: benchmark/layers.go
// still spells fuse.Fuse(p, profile.Default()), and that module cannot
// be edited alongside this one. Fusion takes no profile (internal/fuse
// fuses every eligible sequence); the package goes with the
// benchmark's reference to it (ROADMAP, "Unblock the parked
// deletions").
package profile

// Profile carries nothing; fuse.Fuse ignores its second argument.
type Profile struct{}

// Default returns nil.
func Default() *Profile { return nil }
