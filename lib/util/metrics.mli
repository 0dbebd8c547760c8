(** Structured observability sink for the analysis pipeline.

    One [Metrics.t] value travels through every pipeline stage (via
    [O2.Config.t]) and accumulates four kinds of signal:

    - {b counters} — monotone named integers ([pta.edges], ...);
    - {b timers} — named accumulating wall-clock buckets, for code that
      runs many times under one name;
    - {b gauges} — instantaneous levels with a tracked peak
      ([pta.worklist_peak], ...);
    - {b spans} — hierarchical wall-clock regions
      ([span m "pta.solve" @@ fun () -> ...]) forming the per-stage trace
      the paper's Tables 6–7 report.

    Instrumentation is zero-cost-by-default: stages keep plain mutable
    integers on their hot paths and flush them into the sink (if any) once
    per stage, so running with [metrics = None] allocates nothing.

    Export is machine-readable ({!to_json}, {!to_json_lines}) or a human
    table ({!pp}). *)

type t

(** One completed (or still-open) trace region. *)
type span = {
  sp_path : string;  (** slash-separated path, e.g. ["analyze/pta"] *)
  sp_depth : int;  (** nesting depth, 0 for roots *)
  sp_seq : int;  (** start order, unique per sink *)
  sp_start : float;  (** seconds since sink creation *)
  mutable sp_elapsed : float;  (** duration in seconds; -1 while open *)
}

(** [create ()] is an empty sink; span timestamps are relative to now. *)
val create : unit -> t

(** {1 Counters} *)

(** [counter t name] is the underlying ref — pre-resolve it outside a hot
    loop to skip the per-increment hash lookup. *)
val counter : t -> string -> int ref

(** [incr t name] bumps counter [name] by one (creating it at 0). *)
val incr : t -> string -> unit

(** [add t name n] bumps counter [name] by [n]. *)
val add : t -> string -> int -> unit

(** [set t name n] overwrites counter [name]. *)
val set : t -> string -> int -> unit

(** [get t name] is the current value of [name] (0 if never touched). *)
val get : t -> string -> int

(** [counters t] lists [(name, value)] sorted by name. *)
val counters : t -> (string * int) list

(** {1 Timers} *)

(** [time t name f] runs [f ()], accumulating its wall-clock duration under
    timer [name]; returns [f ()]'s result. Exception-safe. *)
val time : t -> string -> (unit -> 'a) -> 'a

(** [get_time t name] is the accumulated seconds for timer [name]. *)
val get_time : t -> string -> float

(** [timers t] lists [(name, seconds)] sorted by name. *)
val timers : t -> (string * float) list

(** {1 Gauges} *)

(** [gauge_set t name v] sets the gauge level, updating its peak. *)
val gauge_set : t -> string -> int -> unit

(** [gauge_add t name d] moves the gauge level by [d] (may be negative),
    updating its peak. *)
val gauge_add : t -> string -> int -> unit

(** [gauge_peak t name] is the highest level ever set (0 if untouched). *)
val gauge_peak : t -> string -> int

(** [gauges t] lists [(name, current, peak)] sorted by name. *)
val gauges : t -> (string * int * int) list

(** {1 Trace spans} *)

(** [span t name f] runs [f ()] inside a trace region nested under the
    innermost open span; the region is closed (duration recorded) even if
    [f] raises. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** [spans t] lists all regions in start order. *)
val spans : t -> span list

(** {1 Merging} *)

(** [merge ~into src] folds [src] into [into]: counters and timers are
    summed, gauge levels summed with the higher peak kept. Spans are not
    transferred — they are wall-clock regions of one sink's own timeline.
    Used by the batch driver to aggregate per-file sinks into corpus
    totals. *)
val merge : into:t -> t -> unit

(** {1 Export} *)

(** [json_escape s] is [s] escaped for the inside of a JSON string:
    quotes, backslashes and control characters. *)
val json_escape : string -> string

(** [to_json t] is one JSON object:
    [{"counters":{..},"timers":{..},"gauges":{..},"spans":[..]}]. *)
val to_json : t -> string

(** [to_json_lines t] is the same data as JSON lines, one metric per line,
    each tagged with a ["type"] field. *)
val to_json_lines : t -> string

(** [pp] prints the human table: counters, gauges, timers, then the span
    tree indented by depth. *)
val pp : Format.formatter -> t -> unit
