package geom

// ExtremeLPOracle exposes the historical all-pairs vertex test to the
// external test package, which builds instances through internal/core.
var ExtremeLPOracle = extremeLPOracle
