package compress

// RequireZippyMatchesReference lends the reference check to the external
// test package, which seeds its fuzzer with column-store records — records
// this package cannot build without importing the store that imports it.
var RequireZippyMatchesReference = requireZippyMatchesReference
