"""fblab: exact analysis of three-message feedback coding over a BSC.

The package computes, exactly where possible, everything about
transmitting one of three equiprobable messages over a binary symmetric
channel with noiseless feedback: posteriors and vote metrics, the
max-posterior query strategy, forward and backward exact dynamic
programs, the strategy's Markov chain with its return-path series,
closed-form bounds and exponents, and reproducible Monte Carlo.  The
package re-exports nothing: import the modules, for example
``from fblab.exact_dp import bellman_optimum``.
"""
