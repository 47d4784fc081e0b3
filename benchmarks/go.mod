// The benchmark is a module of its own, nested under the repository's
// module path so that it may import ocb/internal/..., and built with its own
// build file so that defining or correcting it never edits the root one.
module ocb/benchmarks

go 1.24

require ocb v0.0.0

replace ocb => ../
