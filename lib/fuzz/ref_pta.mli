(** The serial reference solver — the executable specification of Table 2.

    This is the seed's immediate-firing recursive solver, kept verbatim in
    the differential tester, out of the production pipeline. It exists for
    two jobs:

    - {b certification}: the property tests solve every workload with both
      this oracle and the difference-propagation solver ({!Solver.analyze})
      and assert the {!fingerprint}s are byte-identical — the
      equivalence-class style of validation the paper's artifact used;
    - {b honest baselines}: the benchmark trajectory reports the engine's
      speedup against this oracle, not against itself.

    The oracle has no metrics, budget, jobs or incremental features; it
    supports all four {!Context.policy}s. *)

open O2_ir
open O2_pta

type t

(** [analyze ?policy p] runs the reference whole-program analysis from
    [main]. Default policy is [Korigin 1].
    @raise Invalid_argument on a k-limited policy with [k < 1]. *)
val analyze : ?policy:Context.policy -> Program.t -> t

(** [fingerprint a] is a canonical, identifier-free dump of the solved
    facts: every non-empty points-to set, every spawn, every call edge and
    every join site, rendered structurally (interned object/origin ids are
    expanded) and sorted. Two analyses agree on all facts iff their
    fingerprints are equal strings; it is rendered by
    {!Solver.fingerprint_parts}, the format {!Solver.fingerprint} emits. *)
val fingerprint : t -> string
