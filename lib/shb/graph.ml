open O2_ir
open O2_pta
module Intbuf = O2_util.Intbuf

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

(* The graph keeps its nodes as int columns, four words per node id:
   origin, statement id, kind code and lockset; {!node} records are built
   only at the reporting boundary. The columns fill fixed chunks of 256
   nodes, so a node's words are written once and never copied. A kind
   code is the kind's argument above a 3-bit tag in constructor order,
   so the accesses are the tags up to [t_write]. *)
let t_write = 1 and t_acq = 2 and t_rel = 3 and t_spawn = 4
let t_join = 5 and t_signal = 6 and t_wait = 7

let kind_of_code c =
  let a = c asr 3 in
  match c land 7 with
  | 0 -> Read a
  | 1 -> Write a
  | 2 -> Acq a
  | 3 -> Rel a
  | 4 -> SpawnTo a
  | 5 -> JoinOf a
  | 6 -> SemSignal a
  | _ -> SemWait a

type t = {
  solver : Solver.result;
  locks : Lockset.t;
  mutable chunks : int array array;
  mutable n_nodes : int;
  mutable n_accesses : int;
  ostart : int array;  (* origin o's nodes: ostart.(o) .. ostart.(o + 1) - 1 *)
  mutable spawns_e : (int * int * int) list;
  mutable joins_e : (int * int * int) list;
  mutable sems_e : (int * int * int * int) list;
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
let n_nodes g = g.n_nodes
let n_accesses g = g.n_accesses

let col g c id =
  if id < 0 || id >= g.n_nodes then invalid_arg "Graph: no such node";
  g.chunks.(id lsr 8).((4 * (id land 255)) + c)

let emit g origin sid code ls =
  let id = g.n_nodes in
  if id land 255 = 0 then begin
    if id lsr 8 = Array.length g.chunks then
      g.chunks <- Array.append g.chunks (Array.make (1 + (id lsr 8)) [||]);
    g.chunks.(id lsr 8) <- Array.make 1024 0
  end;
  let k = g.chunks.(id lsr 8) and i = 4 * (id land 255) in
  k.(i) <- origin;
  k.(i + 1) <- sid;
  k.(i + 2) <- code;
  k.(i + 3) <- ls;
  g.n_nodes <- id + 1;
  if code land 7 <= t_write then g.n_accesses <- g.n_accesses + 1;
  id

let node_origin g id = col g 0 id
let node_arg g id = col g 2 id asr 3

(* Bulk reads for detection: a call into this module is not inlined
   across the library boundary, so detection reads a group's column in
   one call, not one call per node. *)
type column = Origin | Sid | Is_write | Lockset

let gather g column (ids : int array) lo n (dst : int array) =
  let c =
    match column with Origin -> 0 | Sid -> 1 | Is_write -> 2 | Lockset -> 3
  in
  for p = 0 to n - 1 do
    let id = ids.(lo + p) in
    if id < 0 || id >= g.n_nodes then invalid_arg "Graph: no such node";
    let v = g.chunks.(id lsr 8).((4 * (id land 255)) + c) in
    dst.(p) <- (if c = 2 then Bool.to_int (v land 7 = t_write) else v)
  done

let iter_accesses g f =
  for c = 0 to ((g.n_nodes + 255) lsr 8) - 1 do
    let k = g.chunks.(c) in
    for id = c lsl 8 to min g.n_nodes ((c + 1) lsl 8) - 1 do
      let code = k.((4 * (id land 255)) + 2) in
      if code land 7 <= t_write then
        f id (code asr 3) k.((4 * (id land 255)) + 1)
    done
  done

let node g id =
  let sid = col g 1 id in
  {
    n_id = id;
    n_origin = node_origin g id;
    n_sid = sid;
    n_pos = Flat.pos_of_sid g.solver.Solver.flat sid;
    n_kind = kind_of_code (col g 2 id);
    n_lockset = col g 3 id;
  }

let nodes g = Array.init (n_nodes g) (node g)
let origin_nodes g o = (g.ostart.(o), g.ostart.(o + 1))

let accesses g =
  let l = ref [] in
  iter_accesses g (fun id _ _ -> l := node g id :: !l);
  Array.of_list (List.rev !l)

let n_origins g = Array.length g.solver.Solver.spawns
let self_parallel g o = Solver.self_parallel g.solver o
let spawn_edges g = g.spawns_e
let join_edges g = g.joins_e
let sem_edges g = g.sems_e

(* ------------------------------------------------------------------ *)
(* construction *)

(* Every origin's trace, read off {!Walk.iter_origins}: the walker inlines
   callee traces at their call sites (Table 4 ⑮); these handlers emit
   nodes, keep the lockset and deduplicate accesses within a lock region.
   One set of handlers serves every origin, whose state sits in the cells
   below, so the walk allocates nothing per access and nothing per origin.
   It returns the semaphore signal and wait nodes by object. *)
let walk_origins ?budget ~serial_events ~lock_region g =
  let a = g.solver in
  let fl = a.Solver.flat in
  let spawn_index = Hashtbl.create 16 in
  Array.iter
    (fun (sp : Solver.spawn) ->
      let site = sp.Solver.sp_site in
      if site >= 0 then
        let l = Option.value ~default:[] (Hashtbl.find_opt spawn_index site) in
        Hashtbl.replace spawn_index site (sp :: l))
    a.Solver.spawns;
  let origin = ref 0 and ls = ref 0 in
  let emit_at sid tag arg = emit g !origin sid ((arg lsl 3) lor tag) !ls in
  (* region-dedup keys are packed into one int: tid < tid_bound always, and
     a lockset id is a small dense int, so (ls * tid_bound + tid) * 2 + w is
     injective — probes compare unboxed ints, no tuple allocation *)
  let tid_bound =
    Flat.n_statics fl + (Pag.n_objs a.Solver.pag * Flat.n_fields fl) + 1
  in
  let pack ls tid w = (((ls * tid_bound) + tid) * 2) + if w then 1 else 0 in
  (* one region table for the build, generation-stamped: membership means
     "bound to the CURRENT generation", so a reset (a new origin, a spawn,
     a lock region) is one int bump and probes are O(1). [Sync] scopes log
     each binding they overwrite in [undo] and restore it on exit,
     re-exposing the outer region's bindings — a save/reset/restore
     discipline per lock region. *)
  let rtbl : int O2_util.Inttbl.t = O2_util.Inttbl.create 256 in
  let cur_gen = ref 0 and next_gen = ref 1 in
  let undo = Intbuf.create () in
  let reset_region () =
    cur_gen := !next_gen;
    incr next_gen
  in
  (* children this origin has spawned so far, for the join rule *)
  let started = ref [] in
  let sigs = Hashtbl.create 8 and waits = Hashtbl.create 8 in
  let sem tag tbl sid pts =
    O2_util.Bitset.iter
      (fun o ->
        let id = emit_at sid tag o in
        Hashtbl.replace tbl o
          (id :: (try Hashtbl.find tbl o with Not_found -> []));
        reset_region ())
      pts
  in
  let h =
    {
      Walk.access =
        (fun sid tid is_write ->
          let k = pack !ls tid is_write in
          let gen =
            match O2_util.Inttbl.find rtbl k with
            | gen -> gen
            | exception Not_found -> -1
          in
          if not (lock_region && gen = !cur_gen) then begin
            if lock_region then begin
              O2_util.Inttbl.replace rtbl k !cur_gen;
              Intbuf.push undo k;
              Intbuf.push undo gen
            end;
            ignore (emit_at sid (if is_write then t_write else 0) tid)
          end);
      call = ignore;
      sync =
        (fun sid lpts body ->
          (* Table 4 ⑯: lock/unlock nodes. A lock var counts as a must-lock
             only when it points to a single abstract object. *)
          let outer = !ls in
          let single =
            match O2_util.Bitset.elements lpts with [ o ] -> o | _ -> -1
          in
          if single >= 0 then begin
            ignore (emit_at sid t_acq single);
            ls := Lockset.acquire g.locks outer single
          end;
          let saved_undo = undo.len and saved_gen = !cur_gen in
          reset_region ();
          body ();
          ls := outer;
          if single >= 0 then ignore (emit_at sid t_rel single);
          while undo.len > saved_undo do
            undo.len <- undo.len - 2;
            O2_util.Inttbl.replace rtbl undo.s.(undo.len) undo.s.(undo.len + 1)
          done;
          cur_gen := saved_gen);
      spawn =
        (fun sid spts ->
          (* Table 4 ⑰: entry(𝕆ᵢ,𝕆ⱼ) ⇒ origin_first(𝕆ⱼ) *)
          match Hashtbl.find_opt spawn_index sid with
          | Some l ->
              List.iter
                (fun (sp' : Solver.spawn) ->
                  if O2_util.Bitset.mem spts sp'.Solver.sp_obj then begin
                    let n = emit_at sid t_spawn sp'.Solver.sp_id in
                    g.spawns_e <- (!origin, sp'.Solver.sp_id, n) :: g.spawns_e;
                    started := sp'.Solver.sp_id :: !started;
                    (* the HB position changed: accesses after this point
                       are no longer equivalent to accesses before it *)
                    reset_region ()
                  end)
                l
          | None -> ());
      join =
        (fun sid jpts ->
          (* Table 4 ⑱: origin_last(𝕆ⱼ) ⇒ join(𝕆ⱼ,𝕆ᵢ). A join is a
             must-join only when the variable points to a single thread
             object, and only for a child this origin started earlier in
             its own trace: a join on a thread that has not started
             returns at once and orders nothing *)
          match O2_util.Bitset.elements jpts with
          | [ oid ] ->
              Array.iter
                (fun (sp' : Solver.spawn) ->
                  if
                    sp'.Solver.sp_obj = oid
                    && sp'.Solver.sp_kind = `Thread
                    && List.mem sp'.Solver.sp_id !started
                  then begin
                    let n = emit_at sid t_join sp'.Solver.sp_id in
                    g.joins_e <- (sp'.Solver.sp_id, !origin, n) :: g.joins_e;
                    reset_region ()
                  end)
                a.Solver.spawns
          | _ -> ());
      signal = sem t_signal sigs;
      wait = sem t_wait waits;
    }
  in
  ignore
    (Walk.iter_origins ?budget a (fun sp ->
         origin := sp.Solver.sp_id;
         g.ostart.(!origin) <- g.n_nodes;
         ls :=
           if serial_events && sp.Solver.sp_kind = `Event then
             Lockset.acquire g.locks 0 Lockset.dispatcher_lock
           else Lockset.empty g.locks;
         started := [];
         undo.len <- 0;
         reset_region ();
         h));
  g.ostart.(n_origins g) <- g.n_nodes;
  (sigs, waits)

(* ------------------------------------------------------------------ *)
(* origin-level HB closure: tree-cover labels *)

(* the first i in [0, len) whose key a.(stride * i + off) is ≥ v, or len:
   the keys ascend *)
let search (a : int array) ~stride ~off ~len v =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.((stride * mid) + off) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* index of the first element ≥ v, i.e. the count of elements < v *)
let lower_bound a v = search a ~stride:1 ~off:0 ~len:(Array.length a) v

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
     and their subtrees one preorder range. An origin's children are
     [| sid0; c0; sid1; c1; … |], by spawn node. *)
  let kids = Array.make n [] in
  for c = n - 1 downto 0 do
    let p = tparent.(c) in
    if p >= 0 then kids.(p) <- (tsid.(c), c) :: kids.(p)
  done;
  let kids =
    Array.map
      (fun l ->
        List.sort compare l
        |> List.concat_map (fun (s, c) -> [ s; c ])
        |> Array.of_list)
      kids
  in
  let pre = Array.make n 0 and last = Array.make n 0 and k = ref 0 in
  let rec visit o =
    pre.(o) <- !k;
    incr k;
    for i = 0 to (Array.length kids.(o) / 2) - 1 do
      visit kids.(o).((2 * i) + 1)
    done;
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
     subtrees) as ascending (lo, hi) pairs; [best] (by preorder, max_int
     between rows) the minimal position of each origin reached singly,
     through a join or semaphore edge or as the row's own origin.
     [ranges], [todo] (lo, hi, pos triples) and [touched] are int stacks
     shared by every row. *)
  let best = Array.make n max_int in
  let ranges = Intbuf.create () and touched = Intbuf.create ()
  and todo = Intbuf.create () in
  let reach lo hi pos =
    Intbuf.push todo lo;
    Intbuf.push todo hi;
    Intbuf.push todo pos
  in
  (* the index of the first range with hi ≥ x *)
  let ranges_below x =
    search ranges.s ~stride:2 ~off:1 ~len:(ranges.len / 2) x
  in
  let covered x =
    let i = ranges_below x in
    2 * i < ranges.len && ranges.s.(2 * i) <= x
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
      if e.e_guard >= p then reach e.e_lo e.e_hi e.e_pos;
      incr i
    done
  in
  (* origin [x] (a preorder rank) reached at position p: its tree children
     spawned at ≥ p, and its non-tree edges guarded ≥ p *)
  let expand x p =
    let o = order.(x) in
    let ks = kids.(o) in
    let i = search ks ~stride:2 ~off:0 ~len:(Array.length ks / 2) p in
    if 2 * i < Array.length ks then
      reach pre.(ks.((2 * i) + 1)) last.(o) min_int;
    follow x x p
  in
  let reach_single x p =
    if p < best.(x) && not (covered x) then begin
      best.(x) <- p;
      Intbuf.push touched x;
      expand x p
    end
  in
  (* the parts of [lo, hi] outside [ranges] are new: follow all their
     non-tree edges, then replace the ranges [lo, hi] overlaps or abuts,
     i .. j - 1, with their union *)
  let reach_range lo hi =
    let i = ranges_below (lo - 1) and k = ranges.len / 2 in
    let j = ref i and c = ref lo and lo' = ref lo and hi' = ref hi in
    while !j < k && ranges.s.(2 * !j) <= hi + 1 do
      let l = ranges.s.(2 * !j) and h = ranges.s.((2 * !j) + 1) in
      if l > !c then follow !c (l - 1) min_int;
      c := max !c (h + 1);
      lo' := min !lo' l;
      hi' := max !hi' h;
      incr j
    done;
    if !c <= hi then follow !c hi min_int;
    if !j = i then begin
      Intbuf.push ranges 0;
      Intbuf.push ranges 0
    end;
    Array.blit ranges.s (2 * !j) ranges.s (2 * (i + 1)) (2 * (k - !j));
    ranges.s.(2 * i) <- !lo';
    ranges.s.((2 * i) + 1) <- !hi';
    ranges.len <- 2 * (k + 1 - (!j - i))
  in
  let drain () =
    while todo.len > 0 do
      let t = todo.len - 3 in
      let lo = todo.s.(t) and hi = todo.s.(t + 1) and pos = todo.s.(t + 2) in
      todo.len <- t;
      if pos = min_int then reach_range lo hi else reach_single lo pos
    done
  in
  (* a row's pieces, by lo; [flush_ranges x] adds the ranges below x *)
  let pieces = Intbuf.create () and next_range = ref 0 in
  let piece lo hi r =
    Intbuf.push pieces lo;
    Intbuf.push pieces hi;
    Intbuf.push pieces r
  in
  let flush_ranges x =
    while 2 * !next_range < ranges.len && ranges.s.(2 * !next_range) < x do
      let i = 2 * !next_range in
      piece ranges.s.(i) ranges.s.(i + 1) (-1);
      incr next_range
    done
  in
  let row o p0 =
    let x0 = pre.(o) in
    best.(x0) <- p0;
    touched.len <- 0;
    Intbuf.push touched x0;
    expand x0 p0;
    drain ();
    (* the ranges at rank -1, merged with the singles they do not cover:
       each single kept once (its [best] is reset on first sight), with
       the count of its origin's entry positions before it as rank *)
    Intbuf.sort_slice touched.s 0 touched.len;
    pieces.len <- 0;
    next_range := 0;
    for i = 0 to touched.len - 1 do
      let x = touched.s.(i) in
      let p = best.(x) in
      best.(x) <- max_int;
      if p <> max_int && not (covered x) then begin
        flush_ranges x;
        piece x x (lower_bound g.hb_inpos.(order.(x)) p)
      end
    done;
    flush_ranges max_int;
    ranges.len <- 0;
    Array.sub pieces.s 0 pieces.len
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

let hb_t_idx g id = lower_bound g.hb_thresholds.(node_origin g id) id

(* q counts entry positions ≤ the node id: a join/wait node is ordered
   after its own incoming edge, so its own position must be included *)
let hb_q_idx g id = lower_bound g.hb_inpos.(node_origin g id) (id + 1)

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
  let i = search row ~stride:3 ~off:0 ~len:(Array.length row / 3) (x + 1) in
  i > 0 && x <= row.((3 * i) - 2) && row.((3 * i) - 1) < q_idx

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

(* §4.3 semaphore HB rule: for every abstract semaphore with exactly one
   static signal node, everything before the signal happens before
   everything after each wait on it *)
let add_sem_edges g (sigs, waits) =
  Hashtbl.iter
    (fun o sig_nodes ->
      match sig_nodes with
      | [ s ] ->
          List.iter
            (fun w ->
              let so = node_origin g s and wo = node_origin g w in
              if wo <> so then g.sems_e <- (so, s, wo, w) :: g.sems_e)
            (try Hashtbl.find waits o with Not_found -> [])
      | _ -> ())
    sigs

let build ?(serial_events = true) ?(lock_region = true) ?metrics ?budget a =
  let span name f =
    match metrics with None -> f () | Some m -> O2_util.Metrics.span m name f
  in
  let g =
    {
      solver = a;
      locks = Lockset.create ();
      chunks = [||];
      n_nodes = 0;
      n_accesses = 0;
      ostart = Array.make (Array.length a.Solver.spawns + 1) 0;
      spawns_e = [];
      joins_e = [];
      sems_e = [];
      hb_thresholds = [||];
      hb_inpos = [||];
      hb_pre = [||];
      hb_rows = [||];
      hb_queries = 0;
    }
  in
  span "shb.build" (fun () ->
      let sems =
        span "shb.walk" (fun () ->
            walk_origins ?budget ~serial_events ~lock_region g)
      in
      span "shb.edges" (fun () -> add_sem_edges g sems);
      span "shb.labels" (fun () -> build_hb_closure g));
  Option.iter
    (fun m ->
      let open O2_util in
      Metrics.set m "shb.nodes" (n_nodes g);
      Metrics.set m "shb.access_nodes" g.n_accesses;
      Metrics.set m "shb.spawn_edges" (List.length g.spawns_e);
      Metrics.set m "shb.join_edges" (List.length g.joins_e);
      Metrics.set m "shb.sem_edges" (List.length g.sems_e);
      Metrics.set m "shb.edges"
        (List.length g.spawns_e + List.length g.joins_e
       + List.length g.sems_e);
      Metrics.set m "shb.locksets" (Lockset.n_distinct g.locks);
      Metrics.set m "shb.hb_closure_size" (hb_closure_entries g))
    metrics;
  g

(* ------------------------------------------------------------------ *)
(* happens-before *)

(* Happens-before between two nodes: intra-origin by id, inter-origin
   through the closure at a's threshold interval and b's entry count. *)
let hb g (a : node) (b : node) =
  g.hb_queries <- g.hb_queries + 1;
  if a.n_origin = b.n_origin then a.n_id < b.n_id
  else
    hb_state g ~src:a.n_origin ~t_idx:(hb_t_idx g a.n_id) ~dst:b.n_origin
      ~q_idx:(hb_q_idx g b.n_id)

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
  for o = 0 to n_origins g - 1 do
    Format.fprintf ppf "origin O%d%s:@," o
      (if self_parallel g o then " (self-parallel)" else "");
    for id = g.ostart.(o) to g.ostart.(o + 1) - 1 do
      Format.fprintf ppf "  #%d %a ls=%d@," id (pp_kind g)
        (kind_of_code (col g 2 id)) (col g 3 id)
    done
  done;
  Format.fprintf ppf "@]"
