open O2_ir
open O2_util

type obj = { ob_site : int; ob_class : Types.cname; ob_hctx : Context.t }

type node =
  | NVar of Types.cname * Types.mname * Types.vname * Context.t
  | NRet of Types.cname * Types.mname * Context.t
  | NField of int * Types.fname
  | NStatic of Types.cname * Types.fname

module ObjIntern = Intern.Make (struct
  type t = obj

  let equal = ( = )
  let hash = Hashtbl.hash
end)

(* Copy edges are deduplicated on the packed key [src lsl 31 lor dst] in an
   {!Inttbl}: one probe is a multiply-and-shift hash with no tuple
   allocation — [add_copy] runs once per watcher delivery, the solve's
   hottest table path. The key's low 31 bits hold [dst] alone, so the
   table relies on [Inttbl]'s hash mixing [src] into the bucket index.
   Node ids stay far below the 2^31 packing bound in practice; the guard
   makes an overflow fail loudly instead of silently merging unrelated
   edges. *)
let edge_key src dst =
  if (src lor dst) lsr 31 <> 0 then
    invalid_arg "Pag.edge_key: node id exceeds the 31-bit packing bound";
  (src lsl 31) lor dst

(* Difference-propagation invariant: [pts.(n)] holds the confirmed
   points-to set of [n]; [delta.(n)] holds pending {e candidates} (they may
   already be in [pts] — deduplication happens at the pop via
   [Bitset.take_fresh_span]). [pending.(n)] accumulates fresh objects of
   watched nodes between propagation and [flush_fires]. *)
type t = {
  objs : ObjIntern.t;
  mutable nodes : node array;
      (* id -> value, append-only: the solver names every node once, so
         nothing here hashes a node *)
  mutable n_nodes : int;
  dummy : Bitset.t;
      (* shared sentinel filling the set arrays: a slot holds [dummy] until
         its first write ([materialize]), so growing the arrays allocates no
         per-slot sets. Never mutated; reads of an untouched slot see the
         empty set. *)
  mutable pts : Bitset.t array;
  mutable delta : Bitset.t array;
  mutable pending : Bitset.t array;
  mutable succs : int list array;
  mutable watchers : (int -> unit) list array;  (* newest first *)
  mutable watched : bool array;
  mutable on_wl : bool array;
  edge_set : unit Inttbl.t;
  mutable wl : int list;  (* LIFO worklist *)
  mutable fire_wl : int list;
      (* watched nodes whose [pending] went nonempty since the last flush —
         flush visits only these instead of scanning every node *)
  scratch : Bitset.t;
      (* reused by every pop for [Bitset.take_fresh_span]: the drain
         allocates nothing *)
  (* plain-int instrumentation, always on (no allocation, flushed into a
     Metrics sink by the solver at the end of the run) *)
  mutable wl_n : int;  (* current worklist length *)
  mutable wl_peak : int;
  mutable wl_pushes : int;
  mutable n_wl_iters : int;
  mutable n_pts_adds : int;
  mutable n_fires : int;
}

let create () =
  {
    objs = ObjIntern.create ();
    nodes = [||];
    n_nodes = 0;
    dummy = Bitset.create ();
    pts = [||];
    delta = [||];
    pending = [||];
    succs = [||];
    watchers = [||];
    watched = [||];
    on_wl = [||];
    edge_set = Inttbl.create 256;
    wl = [];
    fire_wl = [];
    scratch = Bitset.create ();
    wl_n = 0;
    wl_peak = 0;
    wl_pushes = 0;
    n_wl_iters = 0;
    n_pts_adds = 0;
    n_fires = 0;
  }

let obj_id g o = ObjIntern.intern g.objs o
let obj g id = ObjIntern.value g.objs id
let n_objs g = ObjIntern.count g.objs

let grow g n =
  let cap = Array.length g.pts in
  if n > cap then begin
    let cap' = max 256 (max n (cap * 4)) in
    (* blit-extend: a closure call per slot across eight arrays made
       growth a measurable slice of small solves *)
    let ext fill a =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    g.nodes <- ext (NStatic ("", "")) g.nodes;
    g.pts <- ext g.dummy g.pts;
    g.delta <- ext g.dummy g.delta;
    g.pending <- ext g.dummy g.pending;
    g.succs <- ext [] g.succs;
    g.watchers <- ext [] g.watchers;
    g.watched <- ext false g.watched;
    g.on_wl <- ext false g.on_wl
  end

let add_node g n =
  let id = g.n_nodes in
  grow g (id + 1);
  g.nodes.(id) <- n;
  g.n_nodes <- id + 1;
  id

let node g id =
  if id < 0 || id >= g.n_nodes then invalid_arg "Pag.node: unknown node id";
  g.nodes.(id)

let n_nodes g = g.n_nodes
let n_edges g = Inttbl.length g.edge_set

(* Callers of [pts]/[delta] must treat the result as read-only: an
   untouched slot returns the shared [dummy]. All internal writes go
   through [materialize]. *)
let pts g id = g.pts.(id)
let delta g id = g.delta.(id)

let materialize g (a : Bitset.t array) n =
  let s = a.(n) in
  if s == g.dummy then begin
    let s' = Bitset.create () in
    a.(n) <- s';
    s'
  end
  else s

let schedule g n =
  if not g.on_wl.(n) then begin
    g.on_wl.(n) <- true;
    g.wl <- n :: g.wl;
    g.wl_pushes <- g.wl_pushes + 1;
    g.wl_n <- g.wl_n + 1;
    if g.wl_n > g.wl_peak then g.wl_peak <- g.wl_n
  end

let add_obj g n o =
  if not (Bitset.mem g.pts.(n) o) then
    if Bitset.add (materialize g g.delta n) o then schedule g n

let add_copy g ~src ~dst =
  if src <> dst && not (Inttbl.mem g.edge_set (edge_key src dst)) then begin
    Inttbl.add g.edge_set (edge_key src dst) ();
    g.succs.(src) <- dst :: g.succs.(src);
    if Bitset.union_into ~into:(materialize g g.delta dst) g.pts.(src) then
      schedule g dst
  end

let add_watcher g n f =
  g.watchers.(n) <- f :: g.watchers.(n);
  g.watched.(n) <- true;
  Bitset.iter f g.pts.(n)

(* -- propagation -------------------------------------------------------- *)

(* Drain the worklist to quiescence: each pop commits the node's fresh
   candidates and forwards exactly those along its copy edges. *)
let propagate ?check g =
  let scratch = g.scratch in
  let rec loop () =
    match g.wl with
    | [] -> ()
    | n :: rest ->
        g.wl <- rest;
        g.on_wl.(n) <- false;
        g.wl_n <- g.wl_n - 1;
        g.n_wl_iters <- g.n_wl_iters + 1;
        (match check with Some f -> f g.n_wl_iters | None -> ());
        let lo, hi =
          Bitset.take_fresh_span ~scratch ~pts:(materialize g g.pts n)
            ~delta:g.delta.(n)
        in
        if hi > 0 then begin
          g.n_pts_adds <- g.n_pts_adds + Bitset.cardinal_span scratch ~lo ~hi;
          List.iter
            (fun dst ->
              Bitset.union_span_into ~into:(materialize g g.delta dst) scratch
                ~lo ~hi;
              schedule g dst)
            g.succs.(n);
          if g.watched.(n) then begin
            if Bitset.is_empty g.pending.(n) then g.fire_wl <- n :: g.fire_wl;
            Bitset.union_span_into ~into:(materialize g g.pending n) scratch
              ~lo ~hi
          end
        end;
        loop ()
  in
  loop ()

(* Fire accumulated deltas of watched nodes, in deterministic order: nodes
   ascending, objects ascending, watchers in registration order. Watcher
   callbacks may mutate the graph (register watchers, add edges/objects);
   lists are snapshotted first and new work lands in delta/pending for the
   next round. *)
let flush_fires g =
  (* sort (deduplicating) so delivery order is nodes ascending regardless
     of drain order *)
  let hot = List.sort_uniq Int.compare g.fire_wl in
  g.fire_wl <- [];
  let fired = ref false in
  List.iter
    (fun id ->
      if not (Bitset.is_empty g.pending.(id)) then begin
        let fs = List.rev g.watchers.(id) in
        fired := true;
        (* iterate the pending set live: callbacks write only delta (via
           add_obj/add_copy) or other nodes' watcher lists, never pending,
           so no snapshot list is needed *)
        Bitset.iter
          (fun o ->
            g.n_fires <- g.n_fires + 1;
            List.iter (fun f -> f o) fs)
          g.pending.(id);
        Bitset.clear g.pending.(id)
      end)
    hot;
  !fired

let solve ?check g =
  let rec loop () =
    propagate ?check g;
    if flush_fires g then loop ()
  in
  loop ()

let iter_nodes f g =
  for id = 0 to g.n_nodes - 1 do
    f id g.nodes.(id) g.pts.(id)
  done

let n_worklist_iters g = g.n_wl_iters
let n_worklist_pushes g = g.wl_pushes
let worklist_peak g = g.wl_peak
let n_pts_adds g = g.n_pts_adds
let n_fires g = g.n_fires

let n_pts_facts g =
  let total = ref 0 in
  for id = 0 to g.n_nodes - 1 do
    total := !total + Bitset.cardinal g.pts.(id)
  done;
  !total
