package dsm

// ClampInside exposes the snap's clamp to the external test package, whose
// brute-force reference clamps the way SnapToWalkable does.
var ClampInside = clampInside
