(** Origin-sharing analysis (Algorithm 1, §3.3).

    A linear scan over the statements reachable from each origin's entry,
    maintaining per abstract location (⟨object⟩.field or static field) the
    set of origins that read it and the set that write it. A location is
    {e origin-shared} iff one of its accessors writes and it has two
    accessors: two distinct origins, or one self-parallel origin
    ({!O2_pta.Solver.self_parallel}), whose run-time instances are two
    (ComputeOriginSharing). Unlike classical
    thread-escape analysis, OSA answers {e how} a location is shared — which
    origins read, which write — and handles arrays through the ["*"]
    field and statics through their class-qualified signature.

    The origins here are the solver's {!O2_pta.Solver.spawn}s, so OSA (and
    the race engine above it) runs under every pointer-analysis policy; its
    precision then reflects the policy's, which is what Tables 7–9
    measure. *)

open O2_pta

(** Sharing information for one abstract location. *)
type sharing = {
  sh_target : Access.target;
  sh_readers : int list;
      (** origins that read the location, as
          {!O2_pta.Solver.origin_of_spawn} keys (not spawn ids) *)
  sh_writers : int list;  (** origins that write the location, likewise *)
  sh_self_par : bool;  (** some accessor is a self-parallel origin *)
}

(** [is_shared s] is the origin-shared predicate: at least one writer, and
    either two distinct accessing origins or a self-parallel one. Race
    detection keeps a location's accesses by the same rule, so every
    location it reports a race on is shared. *)
val is_shared : sharing -> bool

type t

(** [run ?metrics a] scans all origins of the analysis result [a],
    reading each origin's accesses off {!O2_pta.Walk.iter_origins}. With a
    sink
    the scan runs inside an ["osa.scan"] span and records
    [osa.stmts_scanned], [osa.accesses], [osa.locations] and
    [osa.shared_locations] (the Table 7 volume columns). *)
val run : ?metrics:O2_util.Metrics.t -> Solver.result -> t

(** [sharing_of t target] is the recorded sharing for a location, if any
    origin accessed it. *)
val sharing_of : t -> Access.target -> sharing option

(** [shared_locations t] lists all origin-shared locations. *)
val shared_locations : t -> sharing list

(** [is_shared_target t target] is true iff [target] is origin-shared. *)
val is_shared_target : t -> Access.target -> bool

(** [is_shared_tid t tid] is {!is_shared_target} on the location's flat id
    ({!O2_ir.Flat.tid_field}, {!O2_ir.Flat.tid_static}), as the origin
    walker reports it. *)
val is_shared_tid : t -> int -> bool

(** [n_shared_accesses t] counts access {e sites} (statement, target
    object-resolution included) that touch an origin-shared location — the
    paper's #S-access metric (Table 7). *)
val n_shared_accesses : t -> int

(** [n_shared_objects t] counts distinct abstract objects with at least one
    origin-shared field (statics count one object per class) — the paper's
    #S-obj metric (Table 9). *)
val n_shared_objects : t -> int

(** [n_shared_object_sites a t] is the same count by {e allocation site}
    instead of abstract object — the policy-comparable variant (context
    policies split one site into many abstract objects, which would
    otherwise inflate the more precise analyses' counts). *)
val n_shared_object_sites : Solver.result -> t -> int

(** [origin_local_objects t sp] lists abstract objects accessed only by
    origin [sp] when [sp] is not self-parallel (a self-parallel origin's
    instances are two accessors) — the "origin-local" part of the OSA
    output of Figure 2(d), which §5.4 uses to report that most
    Linux-kernel memory is origin-local. *)
val origin_local_objects : t -> int -> int list

(** [pp] renders the Figure 2(d)-style report: per origin-shared location,
    the reading and writing origins. *)
val pp : Solver.result -> Format.formatter -> t -> unit
