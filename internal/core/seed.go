package core

import "dpbench/internal/noise"

// deriveSeed is the canonical per-stream seed derivation of the runner.
// Every (sample, trial, algorithm) cell of an experiment gets the stream
// deriveSeed(cfg.Seed, s, t, alg); the data generator for sample s gets the
// reserved stream deriveSeed(cfg.Seed, s, -1, -1). Each coordinate is folded
// through a SplitMix64 round, so distinct coordinates yield uncorrelated
// streams even when seeds or indices are adjacent.
func deriveSeed(seed int64, s, t, alg int) int64 {
	h := noise.SplitMix64(uint64(seed))
	h = noise.SplitMix64(h ^ uint64(int64(s)))
	h = noise.SplitMix64(h ^ uint64(int64(t)))
	h = noise.SplitMix64(h ^ uint64(int64(alg)))
	return int64(h)
}

// generatorSeed returns the seed of sample s's data-generation stream.
func generatorSeed(seed int64, s int) int64 { return deriveSeed(seed, s, -1, -1) }
