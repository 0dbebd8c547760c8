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
  mutable uf : int array;  (* union-find parents; uf.(i) = i means root *)
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
  mutable n_collapsed : int;
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
    uf = [||];
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
    n_collapsed = 0;
  }

let obj_id g o = ObjIntern.intern g.objs o
let obj g id = ObjIntern.value g.objs id
let n_objs g = ObjIntern.count g.objs

let grow g n =
  let cap = Array.length g.pts in
  if n > cap then begin
    let cap' = max 256 (max n (cap * 4)) in
    (* blit-extend: a closure call per slot across nine arrays made
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
    let uf' = Array.make cap' 0 in
    Array.blit g.uf 0 uf' 0 cap;
    for i = cap to cap' - 1 do
      uf'.(i) <- i
    done;
    g.uf <- uf';
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

(* Path-halving find. *)
let rec find g i =
  let p = g.uf.(i) in
  if p = i then i
  else begin
    let gp = g.uf.(p) in
    if gp <> p then g.uf.(i) <- gp;
    find g (if gp <> p then gp else p)
  end

(* Callers of [pts]/[delta] must treat the result as read-only: an
   untouched slot returns the shared [dummy]. All internal writes go
   through [materialize]. *)
let pts g id = g.pts.(find g id)
let delta g id = g.delta.(find g id)

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
  let n = find g n in
  if not (Bitset.mem g.pts.(n) o) then
    if Bitset.add (materialize g g.delta n) o then schedule g n

let add_copy g ~src ~dst =
  let src = find g src and dst = find g dst in
  if src <> dst && not (Inttbl.mem g.edge_set (edge_key src dst)) then begin
    Inttbl.add g.edge_set (edge_key src dst) ();
    g.succs.(src) <- dst :: g.succs.(src);
    if Bitset.union_into ~into:(materialize g g.delta dst) g.pts.(src) then
      schedule g dst
  end

let add_watcher g n f =
  let n = find g n in
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
            (fun dst0 ->
              let dst = find g dst0 in
              if dst <> n then begin
                Bitset.union_span_into ~into:(materialize g g.delta dst)
                  scratch ~lo ~hi;
                schedule g dst
              end)
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

(* -- SCC collapsing ----------------------------------------------------- *)

(* Iterative Tarjan over the canonical copy graph; every copy cycle is
   collapsed onto its minimum unwatched member via union-find. Watched
   nodes are left out of the union: merging them would require per-watcher
   catch-up firing, and cycles through watched nodes are rare. Rebuilds
   the worklist so no stale member ids remain. *)
let collapse_sccs g =
  let n = g.n_nodes in
  if n = 0 then 0
  else begin
    let index = Array.make n (-1) in
    let low = Array.make n 0 in
    let on_stack = Array.make n false in
    let stack = ref [] in
    let next_index = ref 0 in
    let merged = ref 0 in
    let unions = ref [] in
    (* explicit DFS stack: (node, remaining successors) *)
    let strongconnect v0 =
      let call = ref [ (v0, ref (g.succs.(v0))) ] in
      index.(v0) <- !next_index;
      low.(v0) <- !next_index;
      incr next_index;
      stack := v0 :: !stack;
      on_stack.(v0) <- true;
      while !call <> [] do
        match !call with
        | [] -> ()
        | (v, rest) :: tl -> (
            match !rest with
            | [] ->
                call := tl;
                if low.(v) = index.(v) then begin
                  (* pop the component *)
                  let comp = ref [] in
                  let stop = ref false in
                  while not !stop do
                    match !stack with
                    | [] -> stop := true
                    | w :: s ->
                        stack := s;
                        on_stack.(w) <- false;
                        comp := w :: !comp;
                        if w = v then stop := true
                  done;
                  match !comp with
                  | _ :: _ :: _ -> unions := !comp :: !unions
                  | _ -> ()
                end;
                (match tl with
                | (u, _) :: _ -> if low.(v) < low.(u) then low.(u) <- low.(v)
                | [] -> ())
            | w0 :: ws ->
                rest := ws;
                let w = find g w0 in
                if w <> v then begin
                  if index.(w) < 0 then begin
                    index.(w) <- !next_index;
                    low.(w) <- !next_index;
                    incr next_index;
                    stack := w :: !stack;
                    on_stack.(w) <- true;
                    call := (w, ref g.succs.(w)) :: !call
                  end
                  else if on_stack.(w) then
                    if index.(w) < low.(v) then low.(v) <- index.(w)
                end)
      done
    in
    for v = 0 to n - 1 do
      if find g v = v && index.(v) < 0 then strongconnect v
    done;
    (* union each component onto its minimum unwatched member *)
    let reps = ref [] in
    List.iter
      (fun comp ->
        let eligible = List.filter (fun v -> not g.watched.(v)) comp in
        match List.sort compare eligible with
        | rep :: (_ :: _ as members) ->
            (* Merge semantics: the merged node's successor list becomes
               the union of the members' lists, but each member's [pts]
               was only ever propagated along its own edges. Only objects
               confirmed on EVERY member have traversed all of them, so
               [pts rep] shrinks to the intersection; everything else —
               facts some member never forwarded, plus deltas in flight
               when the cycle closed — is re-delivered through
               [delta rep] ([take_fresh]'s dedup keeps the re-delivery
               idempotent). Anything less silently drops points-to
               facts when a cycle is collapsed between an edge insertion
               and its propagation. *)
            let drep = materialize g g.delta rep in
            ignore (Bitset.union_into ~into:drep g.pts.(rep));
            List.iter
              (fun m ->
                g.uf.(m) <- rep;
                ignore (Bitset.union_into ~into:drep g.pts.(m));
                ignore (Bitset.union_into ~into:drep g.delta.(m));
                g.succs.(rep) <- List.rev_append g.succs.(m) g.succs.(rep);
                g.succs.(m) <- [];
                incr merged)
              members;
            List.iter
              (fun m -> Bitset.inter_into ~into:g.pts.(rep) g.pts.(m))
              members;
            reps := rep :: !reps
        | _ -> ())
      !unions;
    if !merged > 0 then begin
      (* canonicalize the copy graph under the new union-find state: every
         live root's successor list is rebuilt through [find] (duplicates
         and self-loops dropped) and re-registered in [edge_set] under its
         canonical key, stale member-keyed entries discarded. Without
         this, a later [add_copy] of an already-present canonical edge
         misses the table and appends a duplicate successor, and
         [n_edges] — which also drives the collapse cadence — drifts from
         the live edge count. *)
      Inttbl.reset g.edge_set;
      for v = 0 to n - 1 do
        if g.uf.(v) <> v then g.succs.(v) <- []
        else
          match g.succs.(v) with
          | [] -> ()
          | succs ->
              let out = ref [] in
              List.iter
                (fun d0 ->
                  let d = find g d0 in
                  let k = edge_key v d in
                  if d <> v && not (Inttbl.mem g.edge_set k) then begin
                    Inttbl.add g.edge_set k ();
                    out := d :: !out
                  end)
                succs;
              g.succs.(v) <- !out
      done;
      (* remap worklists: members collapse onto their representative, and
         any representative whose merge parked candidates in its delta is
         (re)scheduled so the next propagation delivers them *)
      let old = g.wl in
      List.iter (fun v -> g.on_wl.(v) <- false) old;
      g.wl <- [];
      g.wl_n <- 0;
      List.iter
        (fun v ->
          let r = find g v in
          if not (Bitset.is_empty g.delta.(r)) then schedule g r)
        old;
      List.iter
        (fun rep ->
          if not (Bitset.is_empty g.delta.(rep)) then schedule g rep)
        !reps;
      g.n_collapsed <- g.n_collapsed + !merged
    end;
    !merged
  end

let solve ?check g =
  let rec loop () =
    propagate ?check g;
    if flush_fires g then loop ()
  in
  loop ()

let iter_nodes f g =
  for id = 0 to g.n_nodes - 1 do
    f id g.nodes.(id) (pts g id)
  done

let n_worklist_iters g = g.n_wl_iters
let n_worklist_pushes g = g.wl_pushes
let worklist_peak g = g.wl_peak
let n_pts_adds g = g.n_pts_adds
let n_fires g = g.n_fires
let n_collapsed g = g.n_collapsed

let n_pts_facts g =
  let total = ref 0 in
  for id = 0 to g.n_nodes - 1 do
    total := !total + Bitset.cardinal (pts g id)
  done;
  !total
