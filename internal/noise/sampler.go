package noise

// SamplerVersion names a noise-sampling family. There is one: the
// math.Log/math.Exp samplers of noise.go, whose stream every golden pins.
// The type stays only so callers that name a version (NewMeterV) still
// compile.
type SamplerVersion uint8

// SamplerLegacy is the one sampler family.
const SamplerLegacy SamplerVersion = 0
