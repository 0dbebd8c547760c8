open O2_ir
open O2_pta

(* Access nodes carry the flat-IR location id (tid, see {!Flat.tid_field})
   of the location they touch — an int, not a structural target, so the
   race engine's grouping and class keys stay in integer land. Decode with
   {!target_of} at the reporting boundary. *)
type node_kind =
  | Read of int
  | Write of int
  | Acq of int
  | Rel of int
  | SpawnTo of int
  | JoinOf of int
  | SemSignal of int
  | SemWait of int

type node = {
  n_id : int;
  n_origin : int;
  n_sid : int;
  n_pos : Types.pos;
  n_kind : node_kind;
  n_lockset : int;
}

type t = {
  solver : Solver.result;
  locks : Lockset.t;
  mutable all_nodes : node list;  (* reversed during build *)
  mutable nodes_arr : node array;
  mutable accesses_arr : node array;
  mutable spawns_e : (int * int * int) list;
  mutable joins_e : (int * int * int) list;
  mutable sems_e : (int * int * int * int) list;
  ids : O2_util.Idgen.t;
  serial_events : bool;
  lock_region : bool;
  (* origin-level HB closure, precomputed once after the edge lists are
     final. hb_thresholds.(o) holds the sorted node ids of o's outgoing
     timed edges (spawns + semaphore signals): HB from a node of o depends
     only on which of those edges lie at/after it, i.e. on the index of the
     first threshold ≥ the node id. hb_inpos.(o) holds the sorted entry
     positions of o's incoming edges (join targets + semaphore waits): any
     position reachable *into* o is either min_int or one of these, so
     reachability at a node of o depends only on how many of them precede
     it. hb_pre.(o) is o's rank in the DFS preorder of a spanning spawn
     tree. hb_rows.(o).(i) is the closure from threshold interval i of o,
     as pieces [| lo0; hi0; r0; lo1; hi1; r1; … |]: disjoint preorder
     ranges by ascending lo, every origin in [lo, hi] reachable with entry
     rank r — -1 for its start (a range of whole subtrees), else the count
     of its entry positions before the minimal reachable one (then
     lo = hi). o itself is covered when reachable. *)
  mutable hb_thresholds : int array array;
  mutable hb_inpos : int array array;
  mutable hb_pre : int array;
  mutable hb_rows : int array array array;
  mutable hb_queries : int;
}

let solver g = g.solver
let target_of g tid = Access.of_tid g.solver.Solver.flat tid
let locks g = g.locks
let accesses g = g.accesses_arr
let nodes g = g.nodes_arr
let n_origins g = Array.length g.solver.Solver.spawns
let self_parallel g o = Solver.self_parallel g.solver o
let spawn_edges g = g.spawns_e
let join_edges g = g.joins_e
let sem_edges g = g.sems_e

(* ------------------------------------------------------------------ *)
(* construction *)

(* One origin's trace, read off {!Walk.iter_origins}: the walker inlines
   callee traces at their call sites (Table 4 ⑮); this consumer emits
   nodes, keeps the lockset and deduplicates accesses within a lock
   region. *)
let build_origin g spawn_index (sp : Solver.spawn) : Walk.handlers =
  let a = g.solver in
  let fl = a.Solver.flat in
  let origin = sp.Solver.sp_id in
  let ls =
    ref
      (if g.serial_events && sp.Solver.sp_kind = `Event then
         Lockset.id g.locks [ Lockset.dispatcher_lock ]
       else Lockset.empty g.locks)
  in
  let emit_at sid kind =
    let n =
      {
        n_id = O2_util.Idgen.next g.ids;
        n_origin = origin;
        n_sid = sid;
        n_pos = Flat.pos_of_sid fl sid;
        n_kind = kind;
        n_lockset = !ls;
      }
    in
    g.all_nodes <- n :: g.all_nodes;
    n
  in
  (* region-dedup keys are packed into one int: tid < tid_bound always, and
     a lockset id is a small dense int, so (ls * tid_bound + tid) * 2 + w is
     injective — probes compare unboxed ints, no tuple allocation *)
  let tid_bound =
    Flat.n_statics fl + (Pag.n_objs a.Solver.pag * Flat.n_fields fl) + 1
  in
  let pack ls tid w = (((ls * tid_bound) + tid) * 2) + if w then 1 else 0 in
  (* the region set is generation-stamped: membership means "bound to the
     CURRENT generation", so a reset is one int bump and probes are O(1).
     [Sync] scopes shadow with [Inttbl.add] and unwind their own trail on
     exit, re-exposing the outer region's bindings — a save/reset/restore
     discipline per lock region. *)
  let rtbl : int O2_util.Inttbl.t = O2_util.Inttbl.create 256 in
  let cur_gen = ref 0 and next_gen = ref 1 in
  let trail = ref [] in
  let reset_region () =
    cur_gen := !next_gen;
    incr next_gen
  in
  (* children this origin has spawned so far, for the join rule *)
  let started = ref [] in
  let sem kind sid pts =
    O2_util.Bitset.iter
      (fun o ->
        ignore (emit_at sid (kind o));
        reset_region ())
      pts
  in
  {
    Walk.access =
      (fun sid tid is_write ->
        let k = pack !ls tid is_write in
        let dup =
          g.lock_region
          &&
          match O2_util.Inttbl.find_opt rtbl k with
          | Some gen -> gen = !cur_gen
          | None -> false
        in
        if not dup then begin
          if g.lock_region then begin
            O2_util.Inttbl.add rtbl k !cur_gen;
            trail := k :: !trail
          end;
          ignore (emit_at sid (if is_write then Write tid else Read tid))
        end);
    call = ignore;
    sync =
      (fun sid lpts body ->
        (* Table 4 ⑯: lock/unlock nodes. A lock var counts as a must-lock
           only when it points to a single abstract object. *)
        let outer = !ls in
        let single =
          match O2_util.Bitset.elements lpts with [ o ] -> Some o | _ -> None
        in
        Option.iter
          (fun o ->
            ignore (emit_at sid (Acq o));
            ls := Lockset.acquire g.locks outer o)
          single;
        let saved_trail = !trail and saved_gen = !cur_gen in
        trail := [];
        reset_region ();
        body ();
        ls := outer;
        Option.iter (fun o -> ignore (emit_at sid (Rel o))) single;
        List.iter (O2_util.Inttbl.remove rtbl) !trail;
        trail := saved_trail;
        cur_gen := saved_gen);
    spawn =
      (fun sid spts ->
        (* Table 4 ⑰: entry(𝕆ᵢ,𝕆ⱼ) ⇒ origin_first(𝕆ⱼ) *)
        match Hashtbl.find_opt spawn_index sid with
        | Some l ->
            List.iter
              (fun (sp' : Solver.spawn) ->
                if O2_util.Bitset.mem spts sp'.Solver.sp_obj then begin
                  let n = emit_at sid (SpawnTo sp'.Solver.sp_id) in
                  g.spawns_e <- (origin, sp'.Solver.sp_id, n.n_id) :: g.spawns_e;
                  started := sp'.Solver.sp_id :: !started;
                  (* the HB position changed: accesses after this point are
                     no longer equivalent to accesses before it *)
                  reset_region ()
                end)
              l
        | None -> ());
    join =
      (fun sid jpts ->
        (* Table 4 ⑱: origin_last(𝕆ⱼ) ⇒ join(𝕆ⱼ,𝕆ᵢ). A join is a must-join
           only when the variable points to a single thread object, and
           only for a child this origin started earlier in its own trace:
           a join on a thread that has not started returns at once and
           orders nothing *)
        match O2_util.Bitset.elements jpts with
        | [ oid ] ->
            Array.iter
              (fun (sp' : Solver.spawn) ->
                if
                  sp'.Solver.sp_obj = oid
                  && sp'.Solver.sp_kind = `Thread
                  && List.mem sp'.Solver.sp_id !started
                then begin
                  let n = emit_at sid (JoinOf sp'.Solver.sp_id) in
                  g.joins_e <- (sp'.Solver.sp_id, origin, n.n_id) :: g.joins_e;
                  reset_region ()
                end)
              a.Solver.spawns
        | _ -> ());
    signal = sem (fun o -> SemSignal o);
    wait = sem (fun o -> SemWait o);
  }

(* ------------------------------------------------------------------ *)
(* origin-level HB closure: tree-cover labels *)

(* index of the first element ≥ v, i.e. the count of elements < v *)
let lower_bound (a : int array) v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* An edge outside the spanning spawn tree, keyed by its source's preorder
   rank: followed from a node of the source at position p when
   [e_guard ≥ p] (max_int for a join, which all of the source precedes),
   it reaches the preorder range [e_lo, e_hi] at position [e_pos] —
   min_int for a spawned child's whole subtree, else one origin's entry
   position. *)
type ntedge = {
  e_src : int;
  e_guard : int;
  e_lo : int;
  e_hi : int;
  e_pos : int;
}

module Ranges = Map.Make (Int)

let build_hb_closure g =
  let n = n_origins g in
  let ths = Array.make n [] and ins = Array.make n [] in
  List.iter (fun (p, _, sid) -> ths.(p) <- sid :: ths.(p)) g.spawns_e;
  List.iter (fun (_, p, jid) -> ins.(p) <- jid :: ins.(p)) g.joins_e;
  List.iter
    (fun (so, sid, wo, wid) ->
      ths.(so) <- sid :: ths.(so);
      ins.(wo) <- wid :: ins.(wo))
    g.sems_e;
  let sorted l = Array.of_list (List.sort_uniq compare l) in
  g.hb_thresholds <- Array.map sorted ths;
  g.hb_inpos <- Array.map sorted ins;
  (* the spanning spawn tree: an origin's tree parent is its spawn edge
     with the smallest node id. Origins are numbered by spawn site, not
     by discovery, so those edges can close a cycle (A starts B, B
     starts A): a parent chain that meets itself is cut there. *)
  let tparent = Array.make n (-1) and tsid = Array.make n max_int in
  List.iter
    (fun (p, c, sid) ->
      if p <> c && sid < tsid.(c) then begin
        tparent.(c) <- p;
        tsid.(c) <- sid
      end)
    g.spawns_e;
  let state = Array.make n 0 (* 0 unseen, 1 on the current chain, 2 done *) in
  let rec up x chain =
    if x < 0 || state.(x) = 2 then chain
    else if state.(x) = 1 then begin
      tparent.(x) <- -1;
      chain
    end
    else begin
      state.(x) <- 1;
      up tparent.(x) (x :: chain)
    end
  in
  for o = 0 to n - 1 do
    List.iter (fun x -> state.(x) <- 2) (up o [])
  done;
  (* DFS preorder, children in spawn-node order: the tree children an
     origin spawns at or after a threshold are a suffix of its children,
     and their subtrees one preorder range *)
  let kids = Array.make n [] in
  for c = n - 1 downto 0 do
    let p = tparent.(c) in
    if p >= 0 then kids.(p) <- (tsid.(c), c) :: kids.(p)
  done;
  let kids = Array.map (fun l -> Array.of_list (List.sort compare l)) kids in
  let pre = Array.make n 0 and last = Array.make n 0 and k = ref 0 in
  let rec visit o =
    pre.(o) <- !k;
    incr k;
    Array.iter (fun (_, c) -> visit c) kids.(o);
    last.(o) <- !k - 1
  in
  for o = 0 to n - 1 do
    if tparent.(o) < 0 then visit o
  done;
  g.hb_pre <- pre;
  let order = Array.make n 0 in
  Array.iteri (fun o x -> order.(x) <- o) pre;
  (* joins, semaphores and every spawn edge but the tree's, by (source
     preorder, guard) *)
  let nt = ref [] in
  let add src guard lo hi pos =
    nt :=
      { e_src = pre.(src); e_guard = guard; e_lo = lo; e_hi = hi; e_pos = pos }
      :: !nt
  in
  List.iter
    (fun (p, c, sid) ->
      if not (tparent.(c) = p && tsid.(c) = sid) then
        add p sid pre.(c) last.(c) min_int)
    g.spawns_e;
  List.iter (fun (c, p, jid) -> add c max_int pre.(p) pre.(p) jid) g.joins_e;
  List.iter
    (fun (so, sid, wo, wid) -> add so sid pre.(wo) pre.(wo) wid)
    g.sems_e;
  let nt =
    List.sort
      (fun a b ->
        match Int.compare a.e_src b.e_src with
        | 0 -> Int.compare a.e_guard b.e_guard
        | c -> c)
      !nt
    |> Array.of_list
  in
  (* One row, as pieces: the chaotic iteration of a BFS over (origin,
     position) states, but over preorder ranges. [ranges] holds the
     disjoint, non-adjacent ranges reached at min_int (unions of whole
     subtrees); [best] (by preorder, max_int between rows) the minimal
     position of each origin reached singly, through a join or semaphore
     edge or as the row's own origin. *)
  let best = Array.make n max_int in
  let ranges = ref Ranges.empty and touched = ref [] and todo = ref [] in
  let covered x =
    match Ranges.find_last_opt (fun lo -> lo <= x) !ranges with
    | Some (_, hi) -> x <= hi
    | None -> false
  in
  (* push the non-tree edges of sources [a, b] whose guard is ≥ p *)
  let follow a b p =
    let lo = ref 0 and hi = ref (Array.length nt) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let e = nt.(mid) in
      if e.e_src < a || (e.e_src = a && e.e_guard < p) then lo := mid + 1
      else hi := mid
    done;
    let i = ref !lo in
    while !i < Array.length nt && nt.(!i).e_src <= b do
      let e = nt.(!i) in
      if e.e_guard >= p then todo := (e.e_lo, e.e_hi, e.e_pos) :: !todo;
      incr i
    done
  in
  (* origin [x] (a preorder rank) reached at position p: its tree children
     spawned at ≥ p, and its non-tree edges guarded ≥ p *)
  let expand x p =
    let o = order.(x) in
    let ks = kids.(o) in
    let lo = ref 0 and hi = ref (Array.length ks) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst ks.(mid) < p then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length ks then
      todo := (pre.(snd ks.(!lo)), last.(o), min_int) :: !todo;
    follow x x p
  in
  let reach_single x p =
    if p < best.(x) && not (covered x) then begin
      best.(x) <- p;
      touched := x :: !touched;
      expand x p
    end
  in
  (* the parts of [lo, hi] outside [ranges] are new: follow all their
     non-tree edges, then merge [lo, hi] with what it overlaps or abuts *)
  let reach_range lo hi =
    let from =
      match Ranges.find_last_opt (fun l -> l <= lo) !ranges with
      | Some (l, h) when h >= lo - 1 -> l
      | _ -> lo
    in
    let c = ref lo and lo' = ref lo and hi' = ref hi in
    Ranges.to_seq_from from !ranges
    |> Seq.take_while (fun (l, _) -> l <= hi + 1)
    |> Seq.iter (fun (l, h) ->
           if l > !c then follow !c (l - 1) min_int;
           c := max !c (h + 1);
           lo' := min !lo' l;
           hi' := max !hi' h;
           ranges := Ranges.remove l !ranges);
    if !c <= hi then follow !c hi min_int;
    ranges := Ranges.add !lo' !hi' !ranges
  in
  let rec drain () =
    match !todo with
    | [] -> ()
    | (lo, hi, pos) :: tl ->
        todo := tl;
        if pos = min_int then reach_range lo hi else reach_single lo pos;
        drain ()
  in
  let row o p0 =
    let x0 = pre.(o) in
    best.(x0) <- p0;
    touched := [ x0 ];
    expand x0 p0;
    drain ();
    (* ranges at rank -1, merged with the singles they do not cover; a
       single's rank counts its origin's entry positions before it *)
    let singles =
      List.sort_uniq Int.compare !touched
      |> List.filter_map (fun x ->
             let p = best.(x) in
             best.(x) <- max_int;
             if p = max_int || covered x then None
             else Some (x, x, lower_bound g.hb_inpos.(order.(x)) p))
    in
    let pieces =
      List.map (fun (l, h) -> (l, h, -1)) (Ranges.bindings !ranges) @ singles
      |> List.sort compare
    in
    ranges := Ranges.empty;
    let a = Array.make (3 * List.length pieces) 0 in
    List.iteri
      (fun i (l, h, r) ->
        a.(3 * i) <- l;
        a.((3 * i) + 1) <- h;
        a.((3 * i) + 2) <- r)
      pieces;
    a
  in
  g.hb_rows <-
    Array.init n (fun o ->
        let t = g.hb_thresholds.(o) in
        Array.init
          (Array.length t + 1)
          (fun i -> row o (if i < Array.length t then t.(i) else max_int)))

(* Exclusive upper bounds of [hb_t_idx] and [hb_q_idx] over all
   origins — the race engine packs (t, q) into its int class keys with
   these. *)
let interval_bounds g =
  let tb = ref 1 and qb = ref 1 in
  Array.iter (fun a -> tb := max !tb (Array.length a + 1)) g.hb_thresholds;
  Array.iter (fun a -> qb := max !qb (Array.length a + 1)) g.hb_inpos;
  (!tb, !qb)

let hb_t_idx g (node : node) =
  lower_bound g.hb_thresholds.(node.n_origin) node.n_id

(* q counts entry positions ≤ the node id: a join/wait node is ordered
   after its own incoming edge, so its own position must be included *)
let hb_q_idx g (node : node) =
  lower_bound g.hb_inpos.(node.n_origin) (node.n_id + 1)

(* Interval-level happens-before: does a node of [src] in threshold
   interval [t_idx] happen before a node of [dst] with [q_idx] incoming
   entry positions behind it? Agrees with [hb] on any pair of nodes with
   those intervals ([src] ≠ [dst]): the closure value is min_int, max_int,
   or one of dst's incoming entry positions, so its entry rank (stored at
   build time) against [q_idx] is the same test as the value against the
   node id. A binary search for [dst]'s preorder rank among the row's
   pieces. *)
let hb_state g ~src ~t_idx ~dst ~q_idx =
  let row = g.hb_rows.(src).(t_idx) and x = g.hb_pre.(dst) in
  (* the first piece starting after x; its predecessor is the candidate *)
  let lo = ref 0 and hi = ref (Array.length row / 3) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if row.(3 * mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo > 0
  && x <= row.((3 * (!lo - 1)) + 1)
  && row.((3 * (!lo - 1)) + 2) < q_idx

let preorder g o = g.hb_pre.(o)
let hb_pieces g ~src ~t_idx = g.hb_rows.(src).(t_idx)

(* hb_state is pure (no per-call counting: the race engine counts every
   query it asks); it reports the total here *)
let note_hb_queries g k = g.hb_queries <- g.hb_queries + k

let hb_queries g = g.hb_queries

let hb_closure_entries g =
  Array.fold_left
    (Array.fold_left (fun acc row ->
         let acc = ref acc in
         for i = 0 to (Array.length row / 3) - 1 do
           acc := !acc + row.((3 * i) + 1) - row.(3 * i) + 1
         done;
         !acc))
    0 g.hb_rows

let build_graph ~serial_events ~lock_region a =
  let sps = a.Solver.spawns in
  let g =
    {
      solver = a;
      locks = Lockset.create ();
      all_nodes = [];
      nodes_arr = [||];
      accesses_arr = [||];
      spawns_e = [];
      joins_e = [];
      sems_e = [];
      ids = O2_util.Idgen.create ();
      serial_events;
      lock_region;
      hb_thresholds = [||];
      hb_inpos = [||];
      hb_pre = [||];
      hb_rows = [||];
      hb_queries = 0;
    }
  in
  let spawn_index = Hashtbl.create 16 in
  Array.iter
    (fun (sp : Solver.spawn) ->
      if sp.Solver.sp_site >= 0 then
        let l =
          match Hashtbl.find_opt spawn_index sp.Solver.sp_site with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace spawn_index sp.Solver.sp_site (sp :: l))
    sps;
  ignore (Walk.iter_origins a (build_origin g spawn_index));
  let all = Array.of_list (List.rev g.all_nodes) in
  g.nodes_arr <- all;
  (* §4.3 semaphore HB rule: for every abstract semaphore with exactly one
     static signal node, everything before the signal happens before
     everything after each wait on it *)
  let sigs = Hashtbl.create 8 and waits = Hashtbl.create 8 in
  Array.iter
    (fun n ->
      match n.n_kind with
      | SemSignal o ->
          Hashtbl.replace sigs o (n :: (try Hashtbl.find sigs o with Not_found -> []))
      | SemWait o ->
          Hashtbl.replace waits o (n :: (try Hashtbl.find waits o with Not_found -> []))
      | _ -> ())
    all;
  Hashtbl.iter
    (fun o sig_nodes ->
      match sig_nodes with
      | [ s ] ->
          List.iter
            (fun w ->
              if w.n_origin <> s.n_origin then
                g.sems_e <-
                  (s.n_origin, s.n_id, w.n_origin, w.n_id) :: g.sems_e)
            (try Hashtbl.find waits o with Not_found -> [])
      | _ -> ())
    sigs;
  g.accesses_arr <-
    Array.of_list
      (List.filter
         (fun n -> match n.n_kind with Read _ | Write _ -> true | _ -> false)
         (Array.to_list all));
  build_hb_closure g;
  g

let build ?(serial_events = true) ?(lock_region = true) ?metrics a =
  match metrics with
  | None -> build_graph ~serial_events ~lock_region a
  | Some m ->
      let g =
        O2_util.Metrics.span m "shb.build" (fun () ->
            build_graph ~serial_events ~lock_region a)
      in
      let open O2_util in
      Metrics.set m "shb.nodes" (Array.length g.nodes_arr);
      Metrics.set m "shb.access_nodes" (Array.length g.accesses_arr);
      Metrics.set m "shb.spawn_edges" (List.length g.spawns_e);
      Metrics.set m "shb.join_edges" (List.length g.joins_e);
      Metrics.set m "shb.sem_edges" (List.length g.sems_e);
      Metrics.set m "shb.edges"
        (List.length g.spawns_e + List.length g.joins_e
       + List.length g.sems_e);
      Metrics.set m "shb.locksets" (Lockset.n_distinct g.locks);
      Metrics.set m "shb.hb_closure_size" (hb_closure_entries g);
      g

(* ------------------------------------------------------------------ *)
(* happens-before *)

(* Happens-before between two nodes: intra-origin by id, inter-origin
   through the closure at a's threshold interval and b's entry count. *)
let hb g (a : node) (b : node) =
  g.hb_queries <- g.hb_queries + 1;
  if a.n_origin = b.n_origin then a.n_id < b.n_id
  else
    hb_state g ~src:a.n_origin ~t_idx:(hb_t_idx g a) ~dst:b.n_origin
      ~q_idx:(hb_q_idx g b)

(* ------------------------------------------------------------------ *)

let pp_kind g ppf = function
  | Read t ->
      Format.fprintf ppf "read %a" (Access.pp_target g.solver) (target_of g t)
  | Write t ->
      Format.fprintf ppf "write %a" (Access.pp_target g.solver) (target_of g t)
  | Acq o -> Format.fprintf ppf "lock o%d" o
  | Rel o -> Format.fprintf ppf "unlock o%d" o
  | SpawnTo s -> Format.fprintf ppf "spawn O%d" s
  | JoinOf s -> Format.fprintf ppf "join O%d" s
  | SemSignal o -> Format.fprintf ppf "signal o%d" o
  | SemWait o -> Format.fprintf ppf "wait o%d" o

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun o _ ->
      Format.fprintf ppf "origin O%d%s:@," o
        (if self_parallel g o then " (self-parallel)" else "");
      Array.iter
        (fun n ->
          if n.n_origin = o then
            Format.fprintf ppf "  #%d %a ls=%d@," n.n_id (pp_kind g) n.n_kind
              n.n_lockset)
        g.nodes_arr)
    g.solver.Solver.spawns;
  Format.fprintf ppf "@]"
