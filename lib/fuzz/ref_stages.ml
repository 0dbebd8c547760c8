open O2_ir
open O2_pta
open O2_shb
open O2_race
open O2_osa

let field_of_target = function
  | Access.Tfield (_, f) -> f
  | Access.Tstatic (c, f) -> c ^ "::" ^ f

(* ---------------- the seed's per-origin AST walk ---------------- *)

let iter_origin a (sp : Solver.spawn) f =
  let visited = Hashtbl.create 64 in
  let rec visit (m : Program.meth) ctx =
    let key = (m.Program.m_class, m.Program.m_name, ctx) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      body m ctx m.Program.m_body
    end
  and body m ctx stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        f m ctx s;
        match s.Ast.sk with
        | Ast.Call _ | Ast.StaticCall _ | Ast.New _ ->
            List.iter
              (fun (callee, cctx) -> visit callee cctx)
              (Solver.callees a ~site:s.Ast.sid ~ctx)
        | Ast.Sync (_, b) | Ast.While b -> body m ctx b
        | Ast.If (b1, b2) ->
            body m ctx b1;
            body m ctx b2
        | _ -> ())
      stmts
  in
  visit sp.Solver.sp_entry sp.Solver.sp_ectx

(* one target per object the base may point to, descending object id *)
let base_targets a m ctx base field =
  O2_util.Bitset.fold
    (fun oid acc -> Access.Tfield (oid, field) :: acc)
    (Solver.pts_var a m ctx base)
    []

let of_stmt a m ctx (s : Ast.stmt) =
  match s.Ast.sk with
  | Ast.FieldWrite (x, f, _) -> Some (base_targets a m ctx x f, true)
  | Ast.FieldRead (_, y, f) -> Some (base_targets a m ctx y f, false)
  | Ast.ArrayWrite (x, _) -> Some (base_targets a m ctx x "*", true)
  | Ast.ArrayRead (_, y) -> Some (base_targets a m ctx y "*", false)
  | Ast.StaticWrite (c, f, _) -> Some ([ Access.Tstatic (c, f) ], true)
  | Ast.StaticRead (_, c, f) -> Some ([ Access.Tstatic (c, f) ], false)
  | _ -> None

(* ---------------- SHB: the seed's AST walker ---------------- *)

type trace = {
  nodes : Graph.node list;
  spawn_edges : (int * int * int) list;
  join_edges : (int * int * int) list;
  sem_edges : (int * int * int * int) list;
}

(* §4.3: a semaphore object with exactly one signal node program-wide
   orders that signal before each wait on it in another origin *)
let sem_edges_of (nodes : Graph.node list) =
  let n_signals = Hashtbl.create 8 in
  List.iter
    (fun (n : Graph.node) ->
      match n.Graph.n_kind with
      | Graph.SemSignal o ->
          Hashtbl.replace n_signals o
            (1 + Option.value ~default:0 (Hashtbl.find_opt n_signals o))
      | _ -> ())
    nodes;
  List.concat_map
    (fun (s : Graph.node) ->
      match s.Graph.n_kind with
      | Graph.SemSignal o when Hashtbl.find n_signals o = 1 ->
          List.filter_map
            (fun (w : Graph.node) ->
              match w.Graph.n_kind with
              | Graph.SemWait o'
                when o' = o && w.Graph.n_origin <> s.Graph.n_origin ->
                  Some
                    ( s.Graph.n_origin,
                      s.Graph.n_id,
                      w.Graph.n_origin,
                      w.Graph.n_id )
              | _ -> None)
            nodes
      | _ -> [])
    nodes

(* Access nodes carry the encoded tid of their structural target (an
   injective encoding), so region dedup keys and the node kinds compare
   directly against {!Graph.build}'s. *)
let shb ?(serial_events = true) ?(lock_region = true) (a : Solver.result) =
  let fl = a.Solver.flat in
  let locks = Lockset.create () and ids = O2_util.Idgen.create () in
  let nodes = ref [] and spawns = ref [] and joins = ref [] in
  let tid_bound =
    Flat.n_statics fl + (Pag.n_objs a.Solver.pag * Flat.n_fields fl) + 1
  in
  let pack ls tid w = (((ls * tid_bound) + tid) * 2) + if w then 1 else 0 in
  let spawn_index = Hashtbl.create 16 in
  Array.iter
    (fun (sp : Solver.spawn) ->
      let site = sp.Solver.sp_site in
      if site >= 0 then
        Hashtbl.replace spawn_index site
          (sp :: Option.value ~default:[] (Hashtbl.find_opt spawn_index site)))
    a.Solver.spawns;
  let origin_trace (sp : Solver.spawn) =
    let origin = sp.Solver.sp_id in
    let base_ls =
      if serial_events && sp.Solver.sp_kind = `Event then
        Lockset.id locks [ Lockset.dispatcher_lock ]
      else Lockset.empty locks
    in
    let visited = Hashtbl.create 64 in
    let seen = ref [] (* the current lock region's dedup keys *) in
    let started = ref [] (* children spawned so far, for the join rule *) in
    let rec visit (m : Program.meth) ctx ls =
      let key = (m.Program.m_class, m.Program.m_name, ctx) in
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.add visited key ();
        body m ctx ls m.Program.m_body
      end
    and body m ctx ls stmts = List.iter (fun s -> stmt m ctx ls s) stmts
    and stmt m ctx ls (s : Ast.stmt) =
      let emit kind ls =
        let n =
          {
            Graph.n_id = O2_util.Idgen.next ids;
            n_origin = origin;
            n_sid = s.Ast.sid;
            n_pos = s.Ast.pos;
            n_kind = kind;
            n_lockset = ls;
          }
        in
        nodes := n :: !nodes;
        n
      in
      let pts x = Solver.pts_var a m ctx x in
      match s.Ast.sk with
      | Ast.New _ | Ast.Call _ | Ast.StaticCall _ ->
          (* Table 4 ⑮: the callee's trace is inlined at the call site *)
          List.iter
            (fun (callee, cctx) -> visit callee cctx ls)
            (Solver.callees a ~site:s.Ast.sid ~ctx)
      | Ast.FieldWrite _ | Ast.FieldRead _ | Ast.ArrayWrite _ | Ast.ArrayRead _
      | Ast.StaticWrite _ | Ast.StaticRead _ -> (
          match of_stmt a m ctx s with
          | Some (targets, is_write) ->
              List.iter
                (fun target ->
                  let tid = Option.get (Access.tid_of fl target) in
                  let k = pack ls tid is_write in
                  if not (lock_region && List.mem k !seen) then begin
                    if lock_region then seen := k :: !seen;
                    let kind =
                      if is_write then Graph.Write tid else Graph.Read tid
                    in
                    ignore (emit kind ls)
                  end)
                targets
          | None -> ())
      | Ast.Sync (x, sync_body) ->
          (* Table 4 ⑯: a must-lock only on a singleton points-to set *)
          let single =
            match O2_util.Bitset.elements (pts x) with
            | [ o ] -> Some o
            | _ -> None
          in
          let ls' =
            match single with
            | Some o ->
                ignore (emit (Graph.Acq o) ls);
                Lockset.acquire locks ls o
            | None -> ls
          in
          let saved = !seen in
          seen := [];
          body m ctx ls' sync_body;
          Option.iter (fun o -> ignore (emit (Graph.Rel o) ls)) single;
          seen := saved
      | Ast.If (b1, b2) ->
          body m ctx ls b1;
          body m ctx ls b2
      | Ast.While b -> body m ctx ls b
      | Ast.Start x | Ast.Post (x, _) ->
          (* Table 4 ⑰: entry(𝕆ᵢ,𝕆ⱼ) ⇒ origin_first(𝕆ⱼ) *)
          let pts = pts x in
          List.iter
            (fun (sp' : Solver.spawn) ->
              if O2_util.Bitset.mem pts sp'.Solver.sp_obj then begin
                let n = emit (Graph.SpawnTo sp'.Solver.sp_id) ls in
                spawns := (origin, sp'.Solver.sp_id, n.Graph.n_id) :: !spawns;
                started := sp'.Solver.sp_id :: !started;
                seen := []
              end)
            (Option.value ~default:[]
               (Hashtbl.find_opt spawn_index s.Ast.sid))
      | Ast.Join x -> (
          (* Table 4 ⑱: origin_last(𝕆ⱼ) ⇒ join(𝕆ⱼ,𝕆ᵢ), for a single thread
             object this origin started earlier in its trace *)
          match O2_util.Bitset.elements (pts x) with
          | [ oid ] ->
              Array.iter
                (fun (sp' : Solver.spawn) ->
                  if
                    sp'.Solver.sp_obj = oid
                    && sp'.Solver.sp_kind = `Thread
                    && List.mem sp'.Solver.sp_id !started
                  then begin
                    let n = emit (Graph.JoinOf sp'.Solver.sp_id) ls in
                    joins := (sp'.Solver.sp_id, origin, n.Graph.n_id) :: !joins;
                    seen := []
                  end)
                a.Solver.spawns
          | _ -> ())
      | Ast.Signal x | Ast.Wait x ->
          let kind o =
            match s.Ast.sk with
            | Ast.Signal _ -> Graph.SemSignal o
            | _ -> Graph.SemWait o
          in
          O2_util.Bitset.iter
            (fun o ->
              ignore (emit (kind o) ls);
              seen := [])
            (pts x)
      | Ast.Assign _ | Ast.Null _ | Ast.Return _ -> ()
    in
    visit sp.Solver.sp_entry sp.Solver.sp_ectx base_ls
  in
  Array.iter origin_trace a.Solver.spawns;
  let nodes = List.rev !nodes in
  {
    nodes;
    spawn_edges = !spawns;
    join_edges = !joins;
    sem_edges = sem_edges_of nodes;
  }

(* ---------------- happens-before: a memoized BFS ---------------- *)

(* The reference's own origin-level HB over a trace's edges. A node of
   origin o is placed by its interval (t, q): t counts o's outgoing timed
   edges (spawns, semaphore signals) before it, q the entry positions of o
   (join nodes, semaphore waits) at or before it. Reachability from
   interval t of o is a BFS over (origin, position) states from o's t-th
   threshold, memoized per (origin, interval): from position p in x one
   follows x's spawns and signals at node ids ≥ p, and x's joins always
   (all of x precedes the join). *)
type hb = {
  thresholds : int array array;  (* origin -> sorted timed-edge node ids *)
  inpos : int array array;  (* origin -> sorted entry positions *)
  out : (int * int * int) list array;
      (* origin -> (guard, dst, dst position): followed from position p when
         guard ≥ p *)
  reach : (int, int) Hashtbl.t option array array;
      (* origin -> interval -> reached origin -> minimal position *)
}

(* the count of elements of the sorted array [a] below [v] *)
let count_below (a : int array) v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let hb_of_trace n_origins t =
  let sorted l = Array.of_list (List.sort_uniq compare l) in
  let per_origin edges =
    let a = Array.make n_origins [] in
    List.iter (fun (o, x) -> a.(o) <- x :: a.(o)) edges;
    a
  in
  let thresholds =
    per_origin
      (List.map (fun (p, _, sid) -> (p, sid)) t.spawn_edges
      @ List.map (fun (so, sid, _, _) -> (so, sid)) t.sem_edges)
    |> Array.map sorted
  and inpos =
    per_origin
      (List.map (fun (_, p, jid) -> (p, jid)) t.join_edges
      @ List.map (fun (_, _, wo, wid) -> (wo, wid)) t.sem_edges)
  and out =
    per_origin
      (List.map (fun (p, c, sid) -> (p, (sid, c, min_int))) t.spawn_edges
      @ List.map (fun (c, p, jid) -> (c, (max_int, p, jid))) t.join_edges
      @ List.map (fun (so, sid, wo, wid) -> (so, (sid, wo, wid))) t.sem_edges)
  in
  {
    thresholds;
    inpos = Array.map sorted inpos;
    out;
    reach = Array.map (fun a -> Array.make (Array.length a + 1) None) thresholds;
  }

let interval h (n : Graph.node) =
  ( count_below h.thresholds.(n.Graph.n_origin) n.Graph.n_id,
    count_below h.inpos.(n.Graph.n_origin) (n.Graph.n_id + 1) )

let reach h o t_idx =
  match h.reach.(o).(t_idx) with
  | Some best -> best
  | None ->
      let ths = h.thresholds.(o) in
      let best = Hashtbl.create 16 and queue = Queue.create () in
      let push x pos =
        match Hashtbl.find_opt best x with
        | Some p when p <= pos -> ()
        | _ ->
            Hashtbl.replace best x pos;
            Queue.push (x, pos) queue
      in
      push o (if t_idx < Array.length ths then ths.(t_idx) else max_int);
      while not (Queue.is_empty queue) do
        let x, p = Queue.pop queue in
        if Hashtbl.find best x = p then
          List.iter
            (fun (guard, y, py) -> if guard >= p then push y py)
            h.out.(x)
      done;
      h.reach.(o).(t_idx) <- Some best;
      best

(* does a node of [src] in interval [t_idx] happen before a node of [dst]
   ([≠ src]) with [q_idx] entry positions at or before it? [dst] is first
   reached at min_int (its start) or at one of its entry positions, which
   precedes the node iff it is among the first [q_idx] *)
let hb_state h ~src ~t_idx ~dst ~q_idx =
  match Hashtbl.find_opt (reach h src t_idx) dst with
  | None -> false
  | Some c -> c = min_int || (q_idx > 0 && c <= h.inpos.(dst).(q_idx - 1))

(* ---------------- race detection: the seed's loop ---------------- *)

type oinfo = {
  o_id : int;
  o_self_par : bool;
  o_ts : int array;  (* sorted distinct t_idx of the origin's group nodes *)
  o_qs : int array;  (* sorted distinct q_idx of the origin's group nodes *)
}

type block = { bk_members : oinfo array; bk_self_par : bool }

type cls = {
  c_nodes : Graph.node array;
  c_block : int;
  c_t : int;
  c_q : int;
  c_ls : int;
  c_write : bool;
  c_by_origin : (int, int) Hashtbl.t;  (* origin -> member count *)
}

type acc = {
  mutable a_races : Detect.race list;
  mutable a_pairs : int;
  mutable a_hb : int;
  mutable a_lock : int;
  mutable a_cls : int;
}

let is_write (n : Graph.node) =
  match n.Graph.n_kind with Graph.Write _ -> true | _ -> false

(* The seed's group check: per-group hash tables on structural keys
   through the polymorphic hash, relation matrices as nested bool arrays
   compared with structural [=], and every HB query asked of the
   reference's own BFS. *)
let check_group ?budget g h acc target (ns : Graph.node list) =
  (* the relation table and the block search are m×m in the group's
     origins: poll per table row and per candidate block, not just per
     group, so a deadline fires inside one large group *)
  let poll () = Option.iter (O2_util.Budget.check ~steps:0) budget in
  let disjoint = Lockset.disjoint (Graph.locks g) in
  let hb_state = hb_state h in
  (* quick origin-sharing filter: skip single-origin or read-only groups *)
  let origin_seen = Hashtbl.create 8 in
  let n_origins = ref 0 and first_origin = ref (-1) in
  List.iter
    (fun (n : Graph.node) ->
      if not (Hashtbl.mem origin_seen n.Graph.n_origin) then begin
        Hashtbl.add origin_seen n.Graph.n_origin ();
        if !n_origins = 0 then first_origin := n.Graph.n_origin;
        incr n_origins
      end)
    ns;
  let has_write = List.exists is_write ns in
  let single_origin_ok =
    !n_origins = 1 && not (Graph.self_parallel g !first_origin)
  in
  if has_write && not single_origin_ok then begin
    let locks = Graph.locks g in
    let intervals = Hashtbl.create 64 in
    let interval n =
      match Hashtbl.find_opt intervals n.Graph.n_id with
      | Some tq -> tq
      | None ->
          let tq = interval h n in
          Hashtbl.add intervals n.Graph.n_id tq;
          tq
    in
    (* per-origin occupancy, first-seen (= id) order *)
    let by_origin = Hashtbl.create 8 and origin_order = ref [] in
    List.iter
      (fun (n : Graph.node) ->
        match Hashtbl.find_opt by_origin n.Graph.n_origin with
        | Some l -> l := n :: !l
        | None ->
            Hashtbl.add by_origin n.Graph.n_origin (ref [ n ]);
            origin_order := n.Graph.n_origin :: !origin_order)
      ns;
    let oinfos =
      List.rev_map
        (fun o ->
          let members = List.rev !(Hashtbl.find by_origin o) in
          let distinct proj =
            List.map proj members |> List.sort_uniq compare |> Array.of_list
          in
          {
            o_id = o;
            o_self_par = Graph.self_parallel g o;
            o_ts = distinct (fun n -> fst (interval n));
            o_qs = distinct (fun n -> snd (interval n));
          })
        !origin_order
      |> List.rev
    in
    (* the full ordered relation table over occupied intervals: rel.(i).(j)
       is the matrix of hb_state answers from origin i's thresholds to
       origin j's entry positions *)
    let oarr = Array.of_list oinfos in
    let m = Array.length oarr in
    let rel =
      Array.init m (fun i ->
          poll ();
          Array.init m (fun j ->
              if i = j then [||]
              else
                let u = oarr.(i) and v = oarr.(j) in
                Array.map
                  (fun t ->
                    Array.map
                      (fun q ->
                        hb_state ~src:u.o_id ~t_idx:t ~dst:v.o_id ~q_idx:q)
                      v.o_qs)
                  u.o_ts))
    in
    (* [equiv i r]: origins i and r are interchangeable inside this group —
       same self-parallelism and occupied slots, symmetric relation between
       the two, and identical relations toward every third origin *)
    let equiv i r =
      poll ();
      let u = oarr.(i) and v = oarr.(r) in
      u.o_self_par = v.o_self_par
      && u.o_ts = v.o_ts
      && u.o_qs = v.o_qs
      && rel.(i).(r) = rel.(r).(i)
      &&
      let ok = ref true in
      let x = ref 0 in
      while !ok && !x < m do
        if !x <> i && !x <> r then
          ok :=
            rel.(i).(!x) = rel.(r).(!x) && rel.(!x).(i) = rel.(!x).(r);
        incr x
      done;
      !ok
    in
    (* greedy origin blocks, deterministic (first-node order both ways) *)
    let reps = ref [] and members = Hashtbl.create 8 in
    for i = 0 to m - 1 do
      match List.find_opt (fun r -> equiv i r) (List.rev !reps) with
      | Some r -> Hashtbl.replace members r (i :: Hashtbl.find members r)
      | None ->
          reps := i :: !reps;
          Hashtbl.add members i [ i ]
    done;
    let blocks =
      List.rev !reps
      |> List.map (fun r ->
             {
               bk_members =
                 List.rev (Hashtbl.find members r)
                 |> List.map (fun i -> oarr.(i))
                 |> Array.of_list;
               bk_self_par = oarr.(r).o_self_par;
             })
      |> Array.of_list
    in
    let block_of_origin = Hashtbl.create 8 in
    Array.iteri
      (fun i blk ->
        Array.iter (fun o -> Hashtbl.replace block_of_origin o.o_id i)
          blk.bk_members)
      blocks;
    (* node classes, first-member (= id) order *)
    let cls_tbl = Hashtbl.create 16 and cls_order = ref [] in
    List.iter
      (fun (n : Graph.node) ->
        let t, q = interval n in
        let key =
          ( Hashtbl.find block_of_origin n.Graph.n_origin,
            t,
            q,
            n.Graph.n_lockset,
            is_write n )
        in
        match Hashtbl.find_opt cls_tbl key with
        | Some members -> members := n :: !members
        | None ->
            let members = ref [ n ] in
            Hashtbl.add cls_tbl key members;
            cls_order := (key, members) :: !cls_order)
      ns;
    let classes =
      List.rev !cls_order
      |> List.map (fun ((blk, t, q, ls, w), members) ->
             let c_nodes = Array.of_list (List.rev !members) in
             let c_by_origin = Hashtbl.create 4 in
             Array.iter
               (fun (n : Graph.node) ->
                 Hashtbl.replace c_by_origin n.Graph.n_origin
                   (1
                   + Option.value ~default:0
                       (Hashtbl.find_opt c_by_origin n.Graph.n_origin)))
               c_nodes;
             {
               c_nodes;
               c_block = blk;
               c_t = t;
               c_q = q;
               c_ls = ls;
               c_write = w;
               c_by_origin;
             })
      |> Array.of_list
    in
    let k = Array.length classes in
    (* a write by a self-parallel origin races with the same access in
       another run-time instance of that origin — unless the access holds a
       lock, which the other instance would hold too *)
    Array.iter
      (fun c ->
        if
          c.c_write
          && blocks.(c.c_block).bk_self_par
          && c.c_ls = Lockset.empty locks
        then begin
          acc.a_pairs <- acc.a_pairs + 1;
          acc.a_cls <- acc.a_cls + Array.length c.c_nodes - 1;
          Array.iter
            (fun a ->
              acc.a_races <-
                { Detect.r_target = target; r_a = a; r_b = a } :: acc.a_races)
            c.c_nodes
        end)
      classes;
    for i = 0 to k - 1 do
      for j = i to k - 1 do
        let ci = classes.(i) and cj = classes.(j) in
        if ci.c_write || cj.c_write then begin
          let same_block = ci.c_block = cj.c_block in
          let sp_i = blocks.(ci.c_block).bk_self_par
          and sp_j = blocks.(cj.c_block).bk_self_par in
          let ni = Array.length ci.c_nodes and nj = Array.length cj.c_nodes in
          let total = if i = j then ni * (ni - 1) / 2 else ni * nj in
          (* member pairs drawn from one origin: candidates only under
             self-parallelism, exactly as in the pairwise loop *)
          let same_origin_pairs =
            if not same_block then 0
            else if i = j then
              Hashtbl.fold
                (fun _ c acc -> acc + (c * (c - 1) / 2))
                ci.c_by_origin 0
            else
              Hashtbl.fold
                (fun o c acc ->
                  acc
                  + c
                    * Option.value ~default:0 (Hashtbl.find_opt cj.c_by_origin o))
                ci.c_by_origin 0
          in
          let candidates =
            if same_block && not sp_i then total - same_origin_pairs else total
          in
          if candidates > 0 then begin
            acc.a_pairs <- acc.a_pairs + 1;
            acc.a_cls <- acc.a_cls + candidates - 1;
            if not (disjoint ci.c_ls cj.c_ls) then
              acc.a_lock <- acc.a_lock + 1
            else begin
              (* HB pruning is unsound across a self-parallel origin *)
              let hb_usable = (not sp_i) && not sp_j in
              let hb_hit =
                hb_usable
                &&
                if same_block then
                  let mem = blocks.(ci.c_block).bk_members in
                  Array.length mem >= 2
                  &&
                  let u = mem.(0) and v = mem.(1) in
                  hb_state ~src:u.o_id ~t_idx:ci.c_t ~dst:v.o_id ~q_idx:cj.c_q
                  || hb_state ~src:u.o_id ~t_idx:cj.c_t ~dst:v.o_id
                       ~q_idx:ci.c_q
                else
                  let u = blocks.(ci.c_block).bk_members.(0)
                  and v = blocks.(cj.c_block).bk_members.(0) in
                  hb_state ~src:u.o_id ~t_idx:ci.c_t ~dst:v.o_id ~q_idx:cj.c_q
                  || hb_state ~src:v.o_id ~t_idx:cj.c_t ~dst:u.o_id
                       ~q_idx:ci.c_q
              in
              if hb_hit then acc.a_hb <- acc.a_hb + 1
              else begin
                let skip_same_origin = same_block && not sp_i in
                let emit (a : Graph.node) (b : Graph.node) =
                  if
                    not
                      (skip_same_origin && a.Graph.n_origin = b.Graph.n_origin)
                  then
                    let a, b =
                      if a.Graph.n_id <= b.Graph.n_id then (a, b) else (b, a)
                    in
                    acc.a_races <-
                      { Detect.r_target = target; r_a = a; r_b = b }
                      :: acc.a_races
                in
                if i = j then
                  for x = 0 to ni - 1 do
                    for y = x + 1 to ni - 1 do
                      emit ci.c_nodes.(x) ci.c_nodes.(y)
                    done
                  done
                else
                  Array.iter
                    (fun a -> Array.iter (emit a) cj.c_nodes)
                    ci.c_nodes
              end
            end
          end
        end
      done
    done
  end

let detect ?budget g t =
  (* the seed's grouping: every access keys the table on its structural
     target through the polymorphic hash *)
  let groups : (Access.target, Graph.node list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  Array.iter
    (fun (n : Graph.node) ->
      match n.Graph.n_kind with
      | Graph.Read t | Graph.Write t -> (
          let tgt = Graph.target_of g t in
          match Hashtbl.find_opt groups tgt with
          | Some l -> l := n :: !l
          | None -> Hashtbl.add groups tgt (ref [ n ]))
      | _ -> ())
    (Graph.accesses g);
  let acc = { a_races = []; a_pairs = 0; a_hb = 0; a_lock = 0; a_cls = 0 } in
  let h = hb_of_trace (Graph.n_origins g) t in
  Hashtbl.iter
    (fun tgt l ->
      Option.iter (O2_util.Budget.check ~steps:0) budget;
      check_group ?budget g h acc tgt (List.rev !l))
    groups;
  let ids (r : Detect.race) =
    (r.Detect.r_a.Graph.n_id, r.Detect.r_b.Graph.n_id)
  in
  let races = List.sort (fun x y -> compare (ids x) (ids y)) acc.a_races in
  (* deduplicate identical source-site pairs, keeping the first witness *)
  let seen = Hashtbl.create 64 in
  let races =
    List.filter
      (fun (r : Detect.race) ->
        let a = r.Detect.r_a.Graph.n_sid and b = r.Detect.r_b.Graph.n_sid in
        let k = ((min a b, max a b), field_of_target r.Detect.r_target) in
        (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
      races
  in
  {
    Detect.races;
    n_pairs_checked = acc.a_pairs;
    n_hb_pruned = acc.a_hb;
    n_lock_pruned = acc.a_lock;
    n_class_pruned = acc.a_cls;
  }

(* ---------------- OSA: the seed's AST scan ---------------- *)

type osa = {
  stmts_scanned : int;
  accesses : int;
  locations : int;
  shared_accesses : int;
  shared : Osa.sharing list;
}

let osa (a : Solver.result) =
  let locs : (Access.target, int list ref * int list ref) Hashtbl.t =
    Hashtbl.create 64
  and self_par_locs = Hashtbl.create 64 in
  let accesses = ref [] and n_accesses = ref 0 and n_scanned = ref 0 in
  Array.iter
    (fun (sp : Solver.spawn) ->
      let origin = Solver.origin_of_spawn a sp in
      let self_par = Solver.self_parallel a sp.Solver.sp_id in
      iter_origin a sp (fun m ctx s ->
          incr n_scanned;
          match of_stmt a m ctx s with
          | None -> ()
          | Some (targets, is_write) ->
              List.iter
                (fun target ->
                  (* ComputeOriginSharing of Algorithm 1 *)
                  let readers, writers =
                    match Hashtbl.find_opt locs target with
                    | Some rw -> rw
                    | None ->
                        let rw = (ref [], ref []) in
                        Hashtbl.add locs target rw;
                        rw
                  in
                  let set = if is_write then writers else readers in
                  if not (List.mem origin !set) then set := origin :: !set;
                  if self_par then Hashtbl.replace self_par_locs target ();
                  accesses := (s.Ast.sid, target, is_write) :: !accesses;
                  incr n_accesses)
                targets))
    a.Solver.spawns;
  let shared =
    Hashtbl.fold
      (fun target (readers, writers) acc ->
        let sh =
          {
            Osa.sh_target = target;
            sh_readers = !readers;
            sh_writers = !writers;
            sh_self_par = Hashtbl.mem self_par_locs target;
          }
        in
        if Osa.is_shared sh then sh :: acc else acc)
      locs []
    |> List.sort (fun x y ->
           Access.compare_target x.Osa.sh_target y.Osa.sh_target)
  in
  let shared_tbl = Hashtbl.create 64 in
  List.iter
    (fun sh -> Hashtbl.replace shared_tbl sh.Osa.sh_target ())
    shared;
  {
    stmts_scanned = !n_scanned;
    accesses = !n_accesses;
    locations = Hashtbl.length locs;
    shared_accesses =
      List.filter (fun (_, t, _) -> Hashtbl.mem shared_tbl t) !accesses
      |> List.sort_uniq compare |> List.length;
    shared;
  }

(* ---------------- the stage-by-stage comparator ---------------- *)

let node_str (n : Graph.node) =
  let kind, x =
    match n.Graph.n_kind with
    | Graph.Read x -> ("read", x)
    | Graph.Write x -> ("write", x)
    | Graph.Acq x -> ("lock", x)
    | Graph.Rel x -> ("unlock", x)
    | Graph.SpawnTo x -> ("spawn", x)
    | Graph.JoinOf x -> ("join", x)
    | Graph.SemSignal x -> ("signal", x)
    | Graph.SemWait x -> ("wait", x)
  in
  Printf.sprintf "#%d O%d sid %d %s %d ls %d" n.Graph.n_id n.Graph.n_origin
    n.Graph.n_sid kind x n.Graph.n_lockset

let check ?serial_events ?lock_region ?budget a g report =
  let out = ref [] in
  let fail stage fmt =
    Printf.ksprintf (fun d -> out := (stage, d) :: !out) fmt
  in
  let t = shb ?serial_events ?lock_region a in
  let rec nodes i = function
    | [], [] -> ()
    | x :: xs, y :: ys ->
        if x = y then nodes (i + 1) (xs, ys)
        else
          fail "shb" "node %d: %s vs reference %s" i (node_str x)
            (node_str y)
    | xs, ys ->
        fail "shb" "%d nodes vs reference %d" (i + List.length xs)
          (i + List.length ys)
  in
  nodes 0 (Array.to_list (Graph.nodes g), t.nodes);
  if Graph.spawn_edges g <> t.spawn_edges then fail "shb" "spawn edges differ";
  if Graph.join_edges g <> t.join_edges then fail "shb" "join edges differ";
  if List.sort compare (Graph.sem_edges g) <> List.sort compare t.sem_edges
  then fail "shb" "sem edges differ";
  let want = detect ?budget g t in
  if report <> want then
    fail "race" "report: %d witnesses, %d class pairs vs reference %d, %d"
      (List.length report.Detect.races) report.Detect.n_pairs_checked
      (List.length want.Detect.races) want.Detect.n_pairs_checked;
  let m = O2_util.Metrics.create () in
  let o = Osa.run ~metrics:m a and r = osa a in
  let count name v want =
    if v <> want then fail "osa" "%s: %d vs reference %d" name v want
  in
  let counter k = O2_util.Metrics.get m ("osa." ^ k) in
  count "stmts_scanned" (counter "stmts_scanned") r.stmts_scanned;
  count "accesses" (counter "accesses") r.accesses;
  count "locations" (counter "locations") r.locations;
  count "shared_locations" (counter "shared_locations") (List.length r.shared);
  count "shared accesses" (Osa.n_shared_accesses o) r.shared_accesses;
  if Osa.shared_locations o <> r.shared then
    fail "osa" "shared locations differ";
  List.rev !out
