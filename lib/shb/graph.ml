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
  self_par : bool array;
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
     it. hb_closure.(o).(i).(o') is the minimal position reachable in o'
     starting from threshold interval i of o (max_int = unreachable). *)
  mutable hb_thresholds : int array array;
  mutable hb_inpos : int array array;
  mutable hb_closure : int array array array;
  mutable hb_queries : int;
}

let solver g = g.solver
let target_of g tid = Access.of_tid g.solver.Solver.flat tid
let locks g = g.locks
let accesses g = g.accesses_arr
let nodes g = g.nodes_arr
let n_origins g = Array.length g.self_par
let self_parallel g o = o >= 0 && o < Array.length g.self_par && g.self_par.(o)
let spawn_edges g = g.spawns_e
let join_edges g = g.joins_e
let sem_edges g = g.sems_e

(* ------------------------------------------------------------------ *)
(* construction *)

let emit g ~origin ~sid ~pos ~kind ~lockset =
  let n =
    {
      n_id = O2_util.Idgen.next g.ids;
      n_origin = origin;
      n_sid = sid;
      n_pos = pos;
      n_kind = kind;
      n_lockset = lockset;
    }
  in
  g.all_nodes <- n :: g.all_nodes;
  n

(* The walker: a scan of the flat opcode streams. Statements appear in
   AST DFS order with block bodies inlined, so only [Sync] — the one
   construct with scoped state (lockset + region reset/restore, Table 4
   ⑯) — needs its block length; [If]/[While] headers are skipped and their
   bodies picked up by the linear scan, exactly like an AST recursion.
   Instances, callees and variable points-to sets come from the solver's
   dense instance call graph. *)
let build_origin g (icg : Solver.icg) stamp (sp : Solver.spawn)
    spawn_index =
  let a = g.solver in
  let fl = a.Solver.flat in
  let origin = sp.Solver.sp_id in
  let base_ls =
    if g.serial_events && sp.Solver.sp_kind = `Event then
      Lockset.id g.locks [ Lockset.dispatcher_lock ]
    else Lockset.empty g.locks
  in
  (* region-dedup keys are packed into one int: tid < tid_bound always, and
     a lockset id is a small dense int, so (ls * tid_bound + tid) * 2 + w is
     injective — List.mem then compares unboxed ints, no tuple allocation *)
  let tid_bound =
    Flat.n_statics fl + (Pag.n_objs a.Solver.pag * Flat.n_fields fl) + 1
  in
  let pack ls tid w = (((ls * tid_bound) + tid) * 2) + if w then 1 else 0 in
  (* the region set is generation-stamped: membership means "bound to the
     CURRENT generation", so a reset is one int bump and probes are O(1).
     [Sync] scopes shadow with [Hashtbl.add] and unwind their own trail on
     exit, re-exposing the outer region's bindings — a save/reset/restore
     discipline per lock region. *)
  let rtbl : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let cur_gen = ref 0 and next_gen = ref 1 in
  let trail = ref [] in
  let reset_region () =
    cur_gen := !next_gen;
    incr next_gen
  in
  let region_mem k =
    match Hashtbl.find_opt rtbl k with
    | Some gen -> gen = !cur_gen
    | None -> false
  in
  let region_add k =
    Hashtbl.add rtbl k !cur_gen;
    trail := k :: !trail
  in
  (* children this origin has spawned so far, for the join rule *)
  let started = ref [] in
  (* visited set over instance ids: one shared stamp array, stamped with
     the spawn id — no per-spawn allocation, no structural hashing *)
  let rec visit iid ls =
    if stamp.(iid) <> origin then begin
      stamp.(iid) <- origin;
      let mi = fl.Flat.f_meths.(icg.Solver.ic_mid.(iid)) in
      walk iid mi icg.Solver.ic_pts.(iid) ls 0 (Array.length mi.Flat.f_code)
    end
  and follow_calls iid ls site =
    match
      Hashtbl.find_opt icg.Solver.ic_callees
        ((iid * icg.Solver.ic_nsids) + site)
    with
    | Some arr -> Array.iter (fun ci -> visit ci ls) arr
    | None -> ()
  and emit_access ls sid tids is_write =
    let pos = Flat.pos_of_sid fl sid in
    List.iter
      (fun tid ->
        let k = pack ls tid is_write in
        let dup = g.lock_region && region_mem k in
        if not dup then begin
          if g.lock_region then region_add k;
          ignore
            (emit g ~origin ~sid ~pos
               ~kind:(if is_write then Write tid else Read tid)
               ~lockset:ls)
        end)
      tids
  and field_tids (pts : O2_util.Bitset.t array) base fid =
    (* cons under an ascending fold: descending-oid order, the
       [Access.base_targets] order *)
    O2_util.Bitset.fold
      (fun oid acc -> Flat.tid_field fl ~oid ~fid :: acc)
      pts.(base) []
  and walk iid (mi : Flat.meth_info) (pts : O2_util.Bitset.t array) ls lo hi =
    let code = mi.Flat.f_code in
    let i = ref lo in
    while !i < hi do
      let j = !i in
      let op = code.(j) in
      let sid = code.(j + 1) in
      if op = Flat.op_null || op = Flat.op_assign || op = Flat.op_return then
        i := j + (if op = Flat.op_null then 2 else if op = Flat.op_assign then 4 else 3)
      else if op = Flat.op_new then begin
        (* Table 4 ⑮: the call node with HB edges to/from the callee body
           is represented by inlining the callee's trace at the call site *)
        follow_calls iid ls sid;
        i := j + 5 + code.(j + 4)
      end
      else if op = Flat.op_callv then begin
        follow_calls iid ls sid;
        i := j + 7 + code.(j + 6)
      end
      else if op = Flat.op_calls then begin
        follow_calls iid ls sid;
        i := j + 5 + code.(j + 4)
      end
      else if op = Flat.op_fwrite then begin
        emit_access ls sid (field_tids pts code.(j + 2) code.(j + 3)) true;
        i := j + 5
      end
      else if op = Flat.op_fread then begin
        emit_access ls sid (field_tids pts code.(j + 3) code.(j + 4)) false;
        i := j + 5
      end
      else if op = Flat.op_awrite then begin
        emit_access ls sid (field_tids pts code.(j + 2) fl.Flat.f_star) true;
        i := j + 4
      end
      else if op = Flat.op_aread then begin
        emit_access ls sid (field_tids pts code.(j + 3) fl.Flat.f_star) false;
        i := j + 4
      end
      else if op = Flat.op_swrite then begin
        emit_access ls sid [ Flat.tid_static fl code.(j + 2) ] true;
        i := j + 4
      end
      else if op = Flat.op_sread then begin
        emit_access ls sid [ Flat.tid_static fl code.(j + 3) ] false;
        i := j + 4
      end
      else if op = Flat.op_sync then begin
        (* Table 4 ⑯: lock/unlock nodes. A lock var counts as a must-lock
           only when it points to a single abstract object. *)
        let blen = code.(j + 3) in
        let lpts = pts.(code.(j + 2)) in
        let pos = Flat.pos_of_sid fl sid in
        let singleton =
          match O2_util.Bitset.elements lpts with [ o ] -> Some o | _ -> None
        in
        let ls' =
          match singleton with
          | Some o ->
              ignore (emit g ~origin ~sid ~pos ~kind:(Acq o) ~lockset:ls);
              Lockset.acquire g.locks ls o
          | None -> ls
        in
        let saved_trail = !trail and saved_gen = !cur_gen in
        trail := [];
        reset_region ();
        walk iid mi pts ls' (j + 4) (j + 4 + blen);
        (match singleton with
        | Some o -> ignore (emit g ~origin ~sid ~pos ~kind:(Rel o) ~lockset:ls)
        | None -> ());
        List.iter (Hashtbl.remove rtbl) !trail;
        trail := saved_trail;
        cur_gen := saved_gen;
        i := j + 4 + blen
      end
      else if op = Flat.op_if then i := j + 4 (* bodies inline; keep scanning *)
      else if op = Flat.op_while then i := j + 3
      else if op = Flat.op_start || op = Flat.op_post then begin
        (* Table 4 ⑰: entry(𝕆ᵢ,𝕆ⱼ) ⇒ origin_first(𝕆ⱼ) *)
        let spts = pts.(code.(j + 2)) in
        let pos = Flat.pos_of_sid fl sid in
        (match Hashtbl.find_opt spawn_index sid with
        | Some l ->
            List.iter
              (fun (sp' : Solver.spawn) ->
                if O2_util.Bitset.mem spts sp'.Solver.sp_obj then begin
                  let n =
                    emit g ~origin ~sid ~pos ~kind:(SpawnTo sp'.Solver.sp_id)
                      ~lockset:ls
                  in
                  g.spawns_e <- (origin, sp'.Solver.sp_id, n.n_id) :: g.spawns_e;
                  started := sp'.Solver.sp_id :: !started;
                  (* the HB position changed: accesses after this point are
                     no longer equivalent to accesses before it *)
                  reset_region ()
                end)
              l
        | None -> ());
        i := j + (if op = Flat.op_start then 4 else 5 + code.(j + 4))
      end
      else if op = Flat.op_join then begin
        (* Table 4 ⑱: origin_last(𝕆ⱼ) ⇒ join(𝕆ⱼ,𝕆ᵢ). A join is a must-join
           only when the variable points to a single thread object, and
           only for a child this origin started earlier in its own trace:
           a join on a thread that has not started returns at once and
           orders nothing *)
        let jpts = pts.(code.(j + 2)) in
        let pos = Flat.pos_of_sid fl sid in
        (match O2_util.Bitset.elements jpts with
        | [ oid ] ->
            Array.iter
              (fun (sp' : Solver.spawn) ->
                if
                  sp'.Solver.sp_obj = oid
                  && sp'.Solver.sp_kind = `Thread
                  && List.mem sp'.Solver.sp_id !started
                then begin
                  let n =
                    emit g ~origin ~sid ~pos ~kind:(JoinOf sp'.Solver.sp_id)
                      ~lockset:ls
                  in
                  g.joins_e <- (sp'.Solver.sp_id, origin, n.n_id) :: g.joins_e;
                  reset_region ()
                end)
              a.Solver.spawns
        | _ -> ());
        i := j + 3
      end
      else if op = Flat.op_signal || op = Flat.op_wait then begin
        let wpts = pts.(code.(j + 2)) in
        let pos = Flat.pos_of_sid fl sid in
        let kind o = if op = Flat.op_signal then SemSignal o else SemWait o in
        O2_util.Bitset.iter
          (fun o ->
            ignore (emit g ~origin ~sid ~pos ~kind:(kind o) ~lockset:ls);
            reset_region ())
          wpts;
        i := j + 3
      end
      else assert false
    done
  in
  visit icg.Solver.ic_entry.(sp.Solver.sp_id) base_ls

(* ------------------------------------------------------------------ *)
(* origin-level HB closure *)

(* index of the first element ≥ v, i.e. the count of elements < v *)
let lower_bound (a : int array) v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let build_hb_closure g =
  let n = Array.length g.self_par in
  let in_range o = o >= 0 && o < n in
  let sp_tmp = Array.make n []
  and jn_tmp = Array.make n []
  and sm_tmp = Array.make n [] in
  List.iter
    (fun (parent, child, sid) ->
      if in_range parent then sp_tmp.(parent) <- (sid, child) :: sp_tmp.(parent))
    g.spawns_e;
  List.iter
    (fun (child, parent, jid) ->
      if in_range child then jn_tmp.(child) <- (parent, jid) :: jn_tmp.(child))
    g.joins_e;
  List.iter
    (fun (so, sid, wo, wid) ->
      if in_range so then sm_tmp.(so) <- (sid, wo, wid) :: sm_tmp.(so))
    g.sems_e;
  let sorted l = Array.of_list (List.sort compare l) in
  let spawns_by = Array.map sorted sp_tmp
  and joins_by = Array.map sorted jn_tmp
  and sems_by = Array.map sorted sm_tmp in
  g.hb_thresholds <-
    Array.init n (fun o ->
        let sids =
          List.map fst sp_tmp.(o)
          @ List.map (fun (sid, _, _) -> sid) sm_tmp.(o)
        in
        Array.of_list (List.sort_uniq compare sids));
  g.hb_inpos <-
    (let acc = Array.make n [] in
     List.iter
       (fun (_, parent, jid) ->
         if in_range parent then acc.(parent) <- jid :: acc.(parent))
       g.joins_e;
     List.iter
       (fun (_, _, wo, wid) ->
         if in_range wo then acc.(wo) <- wid :: acc.(wo))
       g.sems_e;
     Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) acc);
  (* chaotic-iteration BFS from one normalized state, over indexed edges *)
  let reach_from o0 p0 =
    let best = Array.make n max_int in
    let queue = Queue.create () in
    best.(o0) <- p0;
    Queue.push (o0, p0) queue;
    let push x pos =
      if in_range x && pos < best.(x) then begin
        best.(x) <- pos;
        Queue.push (x, pos) queue
      end
    in
    while not (Queue.is_empty queue) do
      let x, p = Queue.pop queue in
      if p <= best.(x) then begin
        let sp = spawns_by.(x) in
        let lo = ref 0 and hi = ref (Array.length sp) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if fst sp.(mid) < p then lo := mid + 1 else hi := mid
        done;
        for i = !lo to Array.length sp - 1 do
          push (snd sp.(i)) min_int
        done;
        Array.iter (fun (parent, jid) -> push parent jid) joins_by.(x);
        let sm = sems_by.(x) in
        let lo = ref 0 and hi = ref (Array.length sm) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          let sid, _, _ = sm.(mid) in
          if sid < p then lo := mid + 1 else hi := mid
        done;
        for i = !lo to Array.length sm - 1 do
          let _, wo, wid = sm.(i) in
          push wo wid
        done
      end
    done;
    best
  in
  g.hb_closure <-
    Array.init n (fun o ->
        let t = g.hb_thresholds.(o) in
        Array.init
          (Array.length t + 1)
          (fun i ->
            let p = if i < Array.length t then t.(i) else max_int in
            reach_from o p))

(* Exclusive upper bounds of the two [hb_interval] components over all
   origins — the race engine packs (t, q) into its int class keys with
   these. *)
let interval_bounds g =
  let tb = ref 1 and qb = ref 1 in
  Array.iter (fun a -> tb := max !tb (Array.length a + 1)) g.hb_thresholds;
  Array.iter (fun a -> qb := max !qb (Array.length a + 1)) g.hb_inpos;
  (!tb, !qb)

let hb_interval g (node : node) =
  (* q counts entry positions ≤ the node id: a join/wait node is ordered
     after its own incoming edge, so its own position must be included *)
  ( lower_bound g.hb_thresholds.(node.n_origin) node.n_id,
    lower_bound g.hb_inpos.(node.n_origin) (node.n_id + 1) )

(* Interval-level happens-before: does a node of [src] in threshold
   interval [t_idx] happen before a node of [dst] with [q_idx] incoming
   entry positions behind it? Agrees with [hb] on any pair of nodes with
   those intervals ([src] ≠ [dst]): the closure value is min_int, max_int,
   or one of dst's incoming entry positions, so comparing its rank against
   [q_idx] is the same as comparing it against the node id. *)
let hb_state g ~src ~t_idx ~dst ~q_idx =
  let c = g.hb_closure.(src).(t_idx).(dst) in
  c = min_int || (c <> max_int && lower_bound g.hb_inpos.(dst) c < q_idx)

(* hb_state is pure (no per-call counting: the race engine memoizes its
   answers and counts every query, memo hits included); it reports the
   total here *)
let note_hb_queries g k = g.hb_queries <- g.hb_queries + k

let hb_queries g = g.hb_queries

let hb_closure_entries g =
  Array.fold_left
    (fun acc per_state ->
      Array.fold_left
        (fun acc best ->
          Array.fold_left
            (fun acc v -> if v < max_int then acc + 1 else acc)
            acc best)
        acc per_state)
    0 g.hb_closure

(* Self-parallelism under the merged (non-origin) policies. An abstract
   spawn stands for every runtime execution of its start/post site that
   the context abstraction folds together; whenever that count can exceed
   one, the single abstract origin covers concurrent runtime instances
   and must race with itself. The syntactic seeds (start inside a loop,
   thread object allocated in a loop) miss the interprocedural case: a
   spawn-wrapper method called from two sites collapses to ONE instance
   under 0-ctx, so its start statement executes twice per run while the
   analysis sees one origin — a dynamically witnessed race with no static
   report. So we compute, over the solved instance call graph, which
   (method, context) instances may execute more than once: two distinct
   incoming call edges, an incoming edge from a loop, a multi-executing
   caller, or being the entry of an already self-parallel origin — and a
   spawn whose start site lives in a multi-executing instance is
   self-parallel. The entry-instance rule also subsumes the old
   transitive parent→child propagation over spawn edges. *)
let multi_exec_self_par (a : Solver.result) =
  let p = a.Solver.program and fl = a.Solver.flat in
  let icg = a.Solver.icg in
  let sps = a.Solver.spawns in
  let n = max 1 icg.Solver.ic_n in
  let multi = Array.make n false in
  let preds = Array.make n [] in
  Hashtbl.iter
    (fun key callees ->
      let caller = key / icg.Solver.ic_nsids
      and sid = key mod icg.Solver.ic_nsids in
      Array.iter
        (fun callee ->
          if callee >= 0 && callee < n then
            preds.(callee) <- (caller, sid) :: preds.(callee))
        callees)
    icg.Solver.ic_callees;
  Array.iteri
    (fun callee ps -> preds.(callee) <- List.sort_uniq compare ps)
    preds;
  Array.iteri
    (fun callee ps ->
      match ps with
      | _ :: _ :: _ -> multi.(callee) <- true
      | ps ->
          if List.exists (fun (_, sid) -> Program.stmt_in_loop p sid) ps then
            multi.(callee) <- true)
    preds;
  let insts_by_mid = Hashtbl.create 64 in
  Array.iteri
    (fun iid mid -> Hashtbl.add insts_by_mid mid iid)
    icg.Solver.ic_mid;
  let site_insts sid =
    let _, m = Program.stmt p sid in
    Hashtbl.find_all insts_by_mid (Flat.mid_of_meth fl m)
  in
  let sp_par =
    Array.map
      (fun (sp : Solver.spawn) ->
        sp.Solver.sp_in_loop
        || (sp.Solver.sp_obj >= 0
           &&
           let o = Pag.obj (a.Solver.pag) sp.Solver.sp_obj in
           Program.stmt_in_loop p o.Pag.ob_site))
      sps
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun callee ps ->
        if
          (not multi.(callee))
          && List.exists (fun (c, _) -> multi.(c)) ps
        then begin
          multi.(callee) <- true;
          changed := true
        end)
      preds;
    Array.iteri
      (fun i (_sp : Solver.spawn) ->
        if sp_par.(i) then begin
          let e = icg.Solver.ic_entry.(i) in
          if e >= 0 && e < n && not multi.(e) then begin
            multi.(e) <- true;
            changed := true
          end
        end)
      sps;
    Array.iteri
      (fun i (sp : Solver.spawn) ->
        if
          (not sp_par.(i))
          && sp.Solver.sp_site >= 0
          && List.exists
               (fun iid -> multi.(iid))
               (site_insts sp.Solver.sp_site)
        then begin
          sp_par.(i) <- true;
          changed := true
        end)
      sps
  done;
  sp_par

let build_graph ~serial_events ~lock_region a =
  let sps = a.Solver.spawns in
  let self_par =
    match a.Solver.policy with
    | Context.Korigin _ ->
        (* §3.2: an origin allocated in a loop is doubled, so races
           between run-time instances surface as races between the two
           copies; treating each copy as self-parallel would instead
           flag every origin-local object. The wrapper replay likewise
           copies origins per incoming call site, so the merged-policy
           multiplicity analysis below is not needed here. (Re-starting
           one thread object is an error in Java, so a started origin
           never runs concurrently with itself.) *)
        Array.map (fun _ -> false) sps
    | _ -> multi_exec_self_par a
  in
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
      self_par;
      ids = O2_util.Idgen.create ();
      serial_events;
      lock_region;
      hb_thresholds = [||];
      hb_inpos = [||];
      hb_closure = [||];
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
  let icg = a.Solver.icg in
  let stamp = Array.make (max 1 icg.Solver.ic_n) (-1) in
  Array.iter (fun sp -> build_origin g icg stamp sp spawn_index) sps;
  (* transitive self-parallelism (a child spawned by a self-parallel
     origin has as many run-time instances as its parent) falls out of
     [multi_exec_self_par]: the parent's entry instance is marked
     multi-executing and the multiplicity propagates along call edges to
     every spawn site the parent reaches *)
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

(* O(1) happens-before: locate a's threshold interval by binary search,
   then compare the precomputed minimal reachable position in b's origin
   against b's id. *)
let hb g (a : node) (b : node) =
  g.hb_queries <- g.hb_queries + 1;
  if a.n_origin = b.n_origin then a.n_id < b.n_id
  else
    let i = lower_bound g.hb_thresholds.(a.n_origin) a.n_id in
    g.hb_closure.(a.n_origin).(i).(b.n_origin) <= b.n_id

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
    g.self_par;
  Format.fprintf ppf "@]"
