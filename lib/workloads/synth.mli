(** Parameterised synthetic workload generators for the evaluation tables
    and the differential fuzzer.

    We cannot ship Tomcat or the Linux kernel; what Tables 5–9 measure is
    how each context abstraction scales and filters on particular code
    {e shapes}. The generator reproduces those shapes with explicit knobs:

    - {b deep helper chains with call fan-out} ([helper_depth] ×
      [helper_fanout] call sites per level, [helper_alloc_sites] receiver
      allocation sites per level): the k-CFA context count grows as
      fanout{^ k} per level and the k-obj count as alloc_sites{^ k},
      while 0-ctx visits each method once and OPA once per origin — the
      Table 5/6 performance story;
    - {b helper-allocated thread-local data}: merged across origins by
      every policy except OPA (the Figure 2 pattern) — false races for
      0-ctx/k-CFA/k-obj, none for O2;
    - {b direct-in-entry local data}: false races only under 0-ctx;
    - {b thread pools} ([pool = true] starts instances in a loop): OPA's
      loop doubling keeps per-origin locals separate, every other policy
      sees one self-parallel abstract thread — more Table 8 spread;
    - {b seeded true races} ([racy]): one pair of conflicting sites each,
      reported by every policy (and each pair deliberately spans a
      thread–event or thread–thread combination);
    - {b correctly locked shared state} ([shared_locked]): never racy;
    - {b wrapper-created threads} and {b nested spawns} for the §3.2
      extensions;
    - {b event chains} ([chain]): handlers that re-post the next handler
      cyclically — origins spawned from event origins;
    - {b post storms} ([storm]): each event instance posted that many
      times;
    - {b nested out-of-order locks} ([lock_depth] > 1): the locked region
      nests the locks in a per-participant rotated/reversed order;
    - {b adversarial degenerates}: self-posting handlers ([self_post]),
      empty entry bodies and method-less classes ([empty]), an
      unreachable helper method ([unreachable]). *)

type spec = {
  s_name : string;
  s_thread_classes : int;  (** distinct thread classes (≥0) *)
  s_instances : int;  (** instances per thread class (≥1) *)
  s_event_classes : int;  (** handler classes, [storm] posts each *)
  s_helper_depth : int;
  s_helper_fanout : int;
  s_helper_alloc_sites : int;
  s_locals_direct : int;  (** direct local Data per entry body *)
  s_locals_helper : int;  (** helper-local Data allocations per level *)
  s_shared_locked : int;  (** correctly-locked shared fields *)
  s_racy : int;  (** seeded true races *)
  s_priv : int;
      (** per-thread-class private objects reached through identically-named
          fields — never racy, but conflated by syntactic detectors (the
          RacerD false-positive pattern) *)
  s_pool : bool;  (** start thread instances in a loop *)
  s_nested : bool;  (** first thread class spawns a child thread *)
  s_wrapper : bool;  (** threads created through a shared wrapper *)
  s_cyclic : int;
      (** copy-cycle rings in main (8 cyclic assignments each) — stresses
          plain propagation around variable copy cycles *)
  s_chain : int;
      (** cyclically-wired chain of handlers, each [handle] re-posting the
          next — deep event chains, origins spawned from event origins *)
  s_storm : int;  (** posts per event instance (≥1; the seed shape is 2) *)
  s_lock_depth : int;
      (** locks nested around the locked region (≥1; >1 rotates/reverses
          the acquisition order per participant) *)
  s_self_post : bool;  (** first handler class re-posts itself *)
  s_empty : bool;  (** add empty-bodied entries and a method-less class *)
  s_unreachable : bool;  (** add a helper method no one calls *)
  s_join : bool;
      (** main joins the last-started thread and then reads the racy
          fields — HB edges that must prune those pairs on the joined
          thread *)
  s_signal : bool;
      (** first thread class signals a shared semaphore after a flagged
          write; main waits on it and reads the flag — signal/wait HB
          edges *)
  s_arrays : int;  (** shared array fields with unlocked element races *)
  s_statics : int;  (** racy static fields on a [GlobalBox] class *)
  s_branch : bool;  (** wrap the racy accesses in an [if_] branch *)
}

val default : spec

(** [validate spec] checks every field against its floor and the
    cross-field constraints; raises [Invalid_argument] naming the
    offending field. [program] calls it, so an invalid spec can never
    silently generate an ill-formed program. *)
val validate : spec -> unit

(** [program spec] builds the synthetic program (deterministic).
    @raise Invalid_argument when {!validate} rejects [spec]. *)
val program : spec -> O2_ir.Program.t

(** Named suites mirroring the paper's benchmark sets. Sizes are tuned so
    the relative behaviour across policies matches the published tables'
    shape; EXPERIMENTS.md records measured vs published. *)

val dacapo : spec list
(** Avrora … Xalan (Table 5/7/8). *)

val android : spec list
(** ConnectBot … Chrome (Table 5): more events, many origins. *)

val distributed : spec list
(** HBase, HDFS, Yarn, ZooKeeper (Tables 5/9). *)

val capps : spec list
(** Memcached, Redis, Sqlite3-shaped C programs (Table 6). *)

val stress : spec list
(** Solver-stress shapes outside the paper's sets; ["cyclic"] puts 160
    copy-cycle rings in main, so objects propagate around variable cycles,
    ["chainstorm"] combines event chains, post storms and nested
    out-of-order locks. *)

val find : string -> spec

(** [scaling ~n] builds a program whose statement count grows linearly in
    [n] (helper-chain depth scaled), for the Table 3 empirical complexity
    curves. *)
val scaling : n:int -> O2_ir.Program.t

(** {2 Fuzzing} *)

(** The shape-space generator behind [o2 fuzz]: every knob above is
    sampled, with rare heavy tails (hundred-handler post storms,
    origin counts in the thousands) and the adversarial degenerate
    flags. Generated specs always satisfy {!validate}. *)
val gen : spec QCheck2.Gen.t

(** [spec_of_seed ~seed ~index] draws deterministically: the same
    [(seed, index)] pair yields the same spec on every run and machine
    (the fuzzer's reproducibility contract). *)
val spec_of_seed : seed:int -> index:int -> spec

val pp_spec : Format.formatter -> spec -> unit
