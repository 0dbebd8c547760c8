open O2_ir.Builder
open O2_pta
open O2_shb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build ?(serial_events = true) ?(lock_region = true)
    ?(policy = Context.Korigin 1) p =
  let a = Solver.analyze ~policy p in
  (a, Graph.build ~serial_events ~lock_region a)

(* ---------------- Lockset ---------------- *)

let test_lockset_canonical () =
  let env = Lockset.create () in
  check_int "empty is 0" 0 (Lockset.empty env);
  let a = Lockset.id env [ 3; 1; 2 ] in
  let b = Lockset.id env [ 1; 2; 3; 3 ] in
  check_int "canonical: order/dups irrelevant" a b;
  let c = Lockset.id env [ 1; 2 ] in
  check_bool "distinct sets distinct ids" true (a <> c);
  Alcotest.(check (list int)) "elements sorted" [ 1; 2; 3 ] (Lockset.elements env a)

let test_lockset_acquire () =
  let env = Lockset.create () in
  let ls = Lockset.acquire env (Lockset.empty env) 5 in
  Alcotest.(check (list int)) "acquire" [ 5 ] (Lockset.elements env ls);
  let ls2 = Lockset.acquire env ls 5 in
  check_int "reentrant acquire is identity" ls ls2;
  let ls3 = Lockset.acquire env ls 9 in
  Alcotest.(check (list int)) "nested" [ 5; 9 ] (Lockset.elements env ls3)

let test_lockset_disjoint_cache () =
  let env = Lockset.create () in
  let a = Lockset.id env [ 1; 2 ] in
  let b = Lockset.id env [ 2; 3 ] in
  let c = Lockset.id env [ 4 ] in
  check_bool "overlap" false (Lockset.disjoint env a b);
  check_bool "disjoint" true (Lockset.disjoint env a c);
  check_bool "empty always disjoint" true (Lockset.disjoint env 0 a);
  let misses0 = Lockset.cache_misses env in
  ignore (Lockset.disjoint env a b);
  ignore (Lockset.disjoint env b a);
  check_int "cache hit on repeat (symmetric)" misses0 (Lockset.cache_misses env);
  check_bool "hits counted" true (Lockset.cache_hits env >= 2)

let prop_lockset_id_iff_set =
  QCheck2.Test.make ~name:"lockset id equal iff set equal" ~count:200
    QCheck2.Gen.(pair (list (int_bound 10)) (list (int_bound 10)))
    (fun (xs, ys) ->
      let env = Lockset.create () in
      let a = Lockset.id env xs and b = Lockset.id env ys in
      a = b = (List.sort_uniq compare xs = List.sort_uniq compare ys))

let prop_lockset_disjoint_model =
  QCheck2.Test.make ~name:"disjoint = no common element" ~count:200
    QCheck2.Gen.(pair (list (int_bound 10)) (list (int_bound 10)))
    (fun (xs, ys) ->
      let env = Lockset.create () in
      let a = Lockset.id env xs and b = Lockset.id env ys in
      Lockset.disjoint env a b
      = not (List.exists (fun x -> List.mem x ys) xs))

(* ---------------- graph construction (Table 4) ---------------- *)

let simple_locked () =
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "W" ~super:"Thread" ~fields:[ "s"; "l" ]
        [
          meth "init" [ "s"; "l" ]
            [ fwrite "this" "s" "s"; fwrite "this" "l" "l" ];
          meth "run" []
            [
              fread "s" "this" "s";
              fread "l" "this" "l";
              sync "l" [ fwrite "s" "v" "s" ];
              fread "x" "s" "v";
              ret None;
            ];
        ];
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "s" "Data" [];
              new_ "l" "Data" [];
              new_ "w1" "W" [ "s"; "l" ];
              new_ "w2" "W" [ "s"; "l" ];
              start "w1";
              start "w2";
              join "w1";
              join "w2";
            ];
        ];
    ]

(* access-node kinds carry int location ids now; decode for field checks *)
let is_field g t f =
  match Graph.target_of g t with
  | Access.Tfield (_, x) -> x = f
  | Access.Tstatic _ -> false

let kinds g =
  Array.to_list (Graph.nodes g) |> List.map (fun n -> n.Graph.n_kind)

let test_nodes_emitted () =
  let _, g = build (simple_locked ()) in
  let ks = kinds g in
  check_bool "acq" true
    (List.exists (function Graph.Acq _ -> true | _ -> false) ks);
  check_bool "rel" true
    (List.exists (function Graph.Rel _ -> true | _ -> false) ks);
  check_bool "spawn" true
    (List.exists (function Graph.SpawnTo _ -> true | _ -> false) ks);
  check_bool "join" true
    (List.exists (function Graph.JoinOf _ -> true | _ -> false) ks);
  check_int "spawn edges" 2 (List.length (Graph.spawn_edges g));
  check_int "join edges" 2 (List.length (Graph.join_edges g))

let test_ids_monotone () =
  let _, g = build (simple_locked ()) in
  let prev = ref (-1) in
  Array.iter
    (fun (n : Graph.node) ->
      check_bool "strictly increasing" true (n.Graph.n_id > !prev);
      prev := n.Graph.n_id)
    (Graph.nodes g)

let test_lockset_on_access () =
  let _, g = build (simple_locked ()) in
  let locks = Graph.locks g in
  let writes, reads =
    Array.to_list (Graph.accesses g)
    |> List.partition (fun n ->
           match n.Graph.n_kind with Graph.Write _ -> true | _ -> false)
  in
  (* the Data.v write inside sync holds a lock; the Data.v read after it
     holds none *)
  let locked_writes =
    List.filter
      (fun (n : Graph.node) ->
        match n.Graph.n_kind with
        | Graph.Write t when is_field g t "v" ->
            Lockset.elements locks n.Graph.n_lockset <> []
        | _ -> false)
      writes
  in
  check_bool "locked v-write exists" true (locked_writes <> []);
  let unlocked_v_reads =
    List.filter
      (fun (n : Graph.node) ->
        match n.Graph.n_kind with
        | Graph.Read t when is_field g t "v" ->
            Lockset.elements locks n.Graph.n_lockset = []
        | _ -> false)
      reads
  in
  check_bool "unlocked v-read exists" true (unlocked_v_reads <> [])

let test_multi_pts_lock_is_not_must () =
  (* a lock variable pointing to two objects is not a must-lock *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "M"
          [
            meth ~static:true "main" []
              [
                if_ [ new_ "l" "Data" [] ] [ new_ "l" "Data" [] ];
                new_ "s" "Data" [];
                sync "l" [ fwrite "s" "v" "s" ];
              ];
          ];
      ]
  in
  let _, g = build p in
  let locks = Graph.locks g in
  Array.iter
    (fun (n : Graph.node) ->
      match n.Graph.n_kind with
      | Graph.Write _ ->
          Alcotest.(check (list int))
            "ambiguous lock dropped" []
            (Lockset.elements locks n.Graph.n_lockset)
      | _ -> ())
    (Graph.accesses g)

(* ---------------- happens-before ---------------- *)

let find_access g ~write ~field =
  Array.to_list (Graph.accesses g)
  |> List.find (fun (n : Graph.node) ->
         match n.Graph.n_kind with
         | Graph.Write t -> write && is_field g t field
         | Graph.Read t -> (not write) && is_field g t field
         | _ -> false)

let test_hb_intra_origin () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "a"; "b" ] [];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "d" "Data" []; fwrite "d" "a" "d"; fwrite "d" "b" "d" ];
          ];
      ]
  in
  let _, g = build p in
  let wa = find_access g ~write:true ~field:"a" in
  let wb = find_access g ~write:true ~field:"b" in
  check_bool "program order" true (Graph.hb g wa wb);
  check_bool "not backwards" false (Graph.hb g wb wa)

let test_hb_spawn_edge () =
  (* main writes before start; thread reads: ordered. *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fread "x" "d" "v"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                fwrite "d" "v" "d";  (* before the spawn *)
                new_ "w" "W" [ "d" ];
                start "w";
              ];
          ];
      ]
  in
  let _, g = build p in
  let w = find_access g ~write:true ~field:"v" in
  let r = find_access g ~write:false ~field:"v" in
  check_bool "write hb read (spawn)" true (Graph.hb g w r);
  check_bool "read not hb write" false (Graph.hb g r w)

let test_hb_after_spawn_not_ordered () =
  (* main writes AFTER start: unordered with the thread's read *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fread "x" "d" "v"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "w" "W" [ "d" ];
                start "w";
                fwrite "d" "v" "d";  (* after the spawn *)
              ];
          ];
      ]
  in
  let _, g = build p in
  let w = find_access g ~write:true ~field:"v" in
  let r = find_access g ~write:false ~field:"v" in
  check_bool "no hb w->r" false (Graph.hb g w r);
  check_bool "no hb r->w" false (Graph.hb g r w)

let test_hb_join_edge () =
  (* thread writes; main reads after join: ordered *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "w" "W" [ "d" ];
                start "w";
                join "w";
                fread "x" "d" "v";
              ];
          ];
      ]
  in
  let _, g = build p in
  let w = find_access g ~write:true ~field:"v" in
  let r = find_access g ~write:false ~field:"v" in
  check_bool "thread write hb post-join read" true (Graph.hb g w r)

let test_hb_transitive_spawn_chain () =
  (* main -> outer -> inner; main's pre-spawn write hb inner's read *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "Inner" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fread "x" "d" "v"; ret None ];
          ];
        cls "Outer" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" []
              [
                fread "d" "this" "s";
                new_ "i" "Inner" [ "d" ];
                start "i";
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                fwrite "d" "v" "d";
                new_ "o" "Outer" [ "d" ];
                start "o";
              ];
          ];
      ]
  in
  let _, g = build p in
  let w = find_access g ~write:true ~field:"v" in
  let r = find_access g ~write:false ~field:"v" in
  check_bool "transitive over two spawns" true (Graph.hb g w r)

(* ---------------- events & dispatcher ---------------- *)

let event_prog () =
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "H" ~super:"Handler" ~fields:[ "s" ]
        [
          meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
          meth "handle" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
        ];
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "d" "Data" [];
              new_ "h1" "H" [ "d" ];
              new_ "h2" "H" [ "d" ];
              post "h1" [];
              post "h2" [];
            ];
        ];
    ]

let test_dispatcher_lock () =
  (* only the handler-body writes (field v) carry the dispatcher lock; the
     constructor writes run in main *)
  let v_writes g =
    Array.to_list (Graph.accesses g)
    |> List.filter (fun (n : Graph.node) ->
           match n.Graph.n_kind with
           | Graph.Write t -> is_field g t "v"
           | _ -> false)
  in
  let _, g = build ~serial_events:true (event_prog ()) in
  let locks = Graph.locks g in
  check_bool "handler writes exist" true (v_writes g <> []);
  List.iter
    (fun (n : Graph.node) ->
      check_bool "handler holds dispatcher lock" true
        (List.mem Lockset.dispatcher_lock
           (Lockset.elements locks n.Graph.n_lockset)))
    (v_writes g);
  let _, g2 = build ~serial_events:false (event_prog ()) in
  List.iter
    (fun (n : Graph.node) ->
      Alcotest.(check (list int))
        "no dispatcher lock when disabled" []
        (Lockset.elements (Graph.locks g2) n.Graph.n_lockset))
    (v_writes g2)

(* ---------------- lock regions ---------------- *)

let region_prog () =
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "d" "Data" [];
              new_ "l" "Data" [];
              sync "l"
                [
                  fwrite "d" "v" "d";
                  fwrite "d" "v" "d";
                  fwrite "d" "v" "d";
                ];
            ];
        ];
    ]

let count_writes g =
  Array.to_list (Graph.accesses g)
  |> List.filter (fun (n : Graph.node) ->
         match n.Graph.n_kind with Graph.Write _ -> true | _ -> false)
  |> List.length

let test_lock_region_merging () =
  let _, g = build ~lock_region:true (region_prog ()) in
  check_int "merged to one" 1 (count_writes g);
  let _, g2 = build ~lock_region:false (region_prog ()) in
  check_int "unmerged keeps all" 3 (count_writes g2)

let test_lock_region_reset_at_spawn () =
  (* a spawn between two identical accesses changes their HB position: they
     must NOT merge *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" [ meth "run" [] [ ret None ] ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                fwrite "d" "v" "d";
                new_ "w" "W" [];
                start "w";
                fwrite "d" "v" "d";
              ];
          ];
      ]
  in
  let _, g = build ~lock_region:true p in
  check_int "not merged across spawn" 2 (count_writes g)

let test_self_parallel_loop_spawn () =
  let p =
    prog ~main:"M"
      [
        cls "W" ~super:"Thread" [ meth "run" [] [ ret None ] ];
        cls "M"
          [
            meth ~static:true "main" []
              [ while_ [ new_ "w" "W" []; start "w" ] ];
          ];
      ]
  in
  (* under 0-ctx: one abstract origin, self-parallel *)
  let _, g0 = build ~policy:Context.Insensitive p in
  let self_par_exists =
    Array.length ((Graph.solver g0).Solver.spawns) > 1
    && Graph.self_parallel g0 1
  in
  check_bool "0-ctx marks loop spawn self-parallel" true self_par_exists;
  (* under OPA: doubled instead *)
  let _, gO = build ~policy:(Context.Korigin 1) p in
  check_int "origin policy doubles" 3
    (Array.length ((Graph.solver gO).Solver.spawns));
  check_bool "copies not self-parallel" false
    (Graph.self_parallel gO 1 || Graph.self_parallel gO 2)

(* Rule ⑱ orders a join only after a spawn by the joining origin itself:
   here Y joins E, which main may not have started yet — the join then
   returns at once and Y's write races with main's. Every race systematic
   exploration finds must be reported under every policy. *)
let unstarted_join_src =
  {|main Main;
class D { field v; }
class E extends Thread {
  method run() { local x; x = new D(); x.v = x; }
}
class Y extends Thread {
  field d; field e;
  method init(d, e) { this.d = d; this.e = e; }
  method run() { local e, d; e = this.e; join e; d = this.d; d.v = d; }
}
class Main {
  static method main() {
    local d, e, y;
    d = new D(); e = new E(); y = new Y(d, e);
    start y; d.v = d; start e;
  }
}
|}

let test_join_unstarted_thread () =
  let p = O2_frontend.Parser.parse_string unstarted_join_src in
  let explored = (O2_runtime.Explore.explore p).O2_runtime.Explore.races in
  check_bool "exploration finds the race" true (explored <> []);
  List.iter
    (fun policy ->
      let cfg = { O2.Config.default with policy; lock_region = false } in
      let r = (O2.run cfg p).O2.report in
      let sites =
        List.map
          (fun (x : O2_race.Detect.race) ->
            ( min x.r_a.Graph.n_sid x.r_b.Graph.n_sid,
              max x.r_a.Graph.n_sid x.r_b.Graph.n_sid ))
          r.O2_race.Detect.races
      in
      List.iter
        (fun (d : O2_runtime.Dynrace.race) ->
          check_bool
            (Printf.sprintf "%s: explored race (%d,%d) reported"
               (Context.policy_name policy) d.d_sid_a d.d_sid_b)
            true
            (List.mem (d.d_sid_a, d.d_sid_b) sites))
        explored)
    [ Context.Insensitive; Context.Kcfa 2; Context.Kobj 2; Context.Korigin 1 ]

(* The reference happens-before: a BFS over (origin, position) states on
   the raw edge lists. From a position p in origin X one can follow a spawn
   edge of X at node id s ≥ p into the start of the child, X's join into
   its parent at node id j (everything in X happens before j in the
   parent), or a semaphore edge of X signalled at s ≥ p. Intra-origin
   order is the id order. [reach_bfs g o p] maps every origin reachable
   from position p of origin o to its minimal reachable position. *)
let reach_bfs g origin pos =
  let best = Hashtbl.create 8 in
  let queue = Queue.create () in
  let push origin pos =
    match Hashtbl.find_opt best origin with
    | Some p when p <= pos -> ()
    | _ ->
        Hashtbl.replace best origin pos;
        Queue.push (origin, pos) queue
  in
  push origin pos;
  while not (Queue.is_empty queue) do
    let x, p = Queue.pop queue in
    if Hashtbl.find best x = p then begin
      List.iter
        (fun (parent, child, sid) ->
          if parent = x && sid >= p then push child min_int)
        (Graph.spawn_edges g);
      List.iter
        (fun (child, parent, jid) -> if child = x then push parent jid)
        (Graph.join_edges g);
      List.iter
        (fun (so, sid, wo, wid) -> if so = x && sid >= p then push wo wid)
        (Graph.sem_edges g)
    end
  done;
  best

let hb_bfs g (a : Graph.node) (b : Graph.node) =
  if a.Graph.n_origin = b.Graph.n_origin then a.Graph.n_id < b.Graph.n_id
  else
    match Hashtbl.find_opt (reach_bfs g a.Graph.n_origin a.Graph.n_id)
            b.Graph.n_origin with
    | Some p -> p <= b.Graph.n_id
    | None -> false

(* the closure-based hb must agree with the BFS on every node pair of a
   randomized graph (and hb_state with both, at the node's intervals) *)
let prop_hb_closure_matches_bfs =
  QCheck2.Test.make ~name:"HB closure = BFS oracle" ~count:60
    ~print:O2_test_helpers.Gen.print_spec O2_test_helpers.Gen.spec_gen
    (fun spec ->
      let p = O2_test_helpers.Gen.program_of_spec spec in
      List.for_all
        (fun policy ->
          let a = Solver.analyze ~policy p in
          let g = Graph.build a in
          let ns = Graph.nodes g in
          let len = Array.length ns in
          let stride = max 1 (len / 60) in
          let ok = ref true in
          let i = ref 0 in
          while !ok && !i < len do
            let j = ref 0 in
            while !ok && !j < len do
              let x = ns.(!i) and y = ns.(!j) in
              let hb = Graph.hb g x y in
              ok := hb = hb_bfs g x y;
              if !ok && x.Graph.n_origin <> y.Graph.n_origin then begin
                ok :=
                  Graph.hb_state g ~src:x.Graph.n_origin
                    ~t_idx:(Graph.hb_t_idx g x) ~dst:y.Graph.n_origin
                    ~q_idx:(Graph.hb_q_idx g y)
                  = hb
              end;
              j := !j + stride
            done;
            i := !i + stride
          done;
          !ok)
        [ Context.Insensitive; Context.Korigin 1 ])

(* ---------------- closure labels on non-tree shapes ---------------- *)

(* An origin's thresholds (its spawn and signal node ids) and entry
   positions (its join and wait node ids), read off the edge lists. *)
let timed g =
  let n = Graph.n_origins g in
  let ths = Array.make n [] and ins = Array.make n [] in
  List.iter
    (fun (p, _, sid) -> ths.(p) <- sid :: ths.(p))
    (Graph.spawn_edges g);
  List.iter (fun (_, p, jid) -> ins.(p) <- jid :: ins.(p)) (Graph.join_edges g);
  List.iter
    (fun (so, sid, wo, wid) ->
      ths.(so) <- sid :: ths.(so);
      ins.(wo) <- wid :: ins.(wo))
    (Graph.sem_edges g);
  let sorted l = Array.of_list (List.sort_uniq compare l) in
  (Array.map sorted ths, Array.map sorted ins)

(* Every (origin, threshold interval) × origin answer of [hb_state], for
   every entry count of the destination, against the BFS from the
   interval's threshold: the destination's first reachable position
   precedes a node with q entry positions at or before it iff it is its
   start or one of those q. The closure size must be the number of
   (origin, interval, origin) states the BFS reaches. *)
let check_labels_against_bfs name g =
  let ths, ins = timed g in
  let n = Graph.n_origins g in
  let entries = ref 0 and bad = ref 0 in
  for src = 0 to n - 1 do
    for t = 0 to Array.length ths.(src) do
      let p0 = if t < Array.length ths.(src) then ths.(src).(t) else max_int in
      let best = reach_bfs g src p0 in
      Hashtbl.iter (fun _ p -> if p < max_int then incr entries) best;
      for dst = 0 to n - 1 do
        if dst <> src then
          for q = 0 to Array.length ins.(dst) do
            let want =
              match Hashtbl.find_opt best dst with
              | None -> false
              | Some c -> c = min_int || (q > 0 && c <= ins.(dst).(q - 1))
            in
            if Graph.hb_state g ~src ~t_idx:t ~dst ~q_idx:q <> want then
              incr bad
          done
      done
    done
  done;
  check_int (name ^ ": hb_state = BFS") 0 !bad;
  check_int (name ^ ": closure entries") !entries (Graph.hb_closure_entries g)

(* edges outside any spanning spawn tree: joins, semaphore edges, and
   every spawn edge into an origin beyond its first *)
let non_tree_edges g =
  let children = List.map (fun (_, c, _) -> c) (Graph.spawn_edges g) in
  List.length (Graph.join_edges g)
  + List.length (Graph.sem_edges g)
  + List.length children
  - List.length (List.sort_uniq compare children)

(* H's start site sits in a helper that main and T1 both call (under
   0-ctx: one origin with two spawn parents); T1 starts the nested T2 and
   joins it, main joins T1 after that nested spawn, and T2 signals the one
   semaphore main waits on *)
let non_tree_prog () =
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v"; "w" ] [];
      cls "H" ~super:"Thread" ~fields:[ "s" ]
        [
          meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
          meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
        ];
      cls "Starter"
        [ meth "go" [ "d" ] [ new_ "h" "H" [ "d" ]; start "h"; ret None ] ];
      cls "T2" ~super:"Thread" ~fields:[ "s"; "q" ]
        [
          meth "init" [ "s"; "q" ]
            [ fwrite "this" "s" "s"; fwrite "this" "q" "q" ];
          meth "run" []
            [
              fread "d" "this" "s";
              fwrite "d" "w" "d";
              fread "q" "this" "q";
              signal "q";
              ret None;
            ];
        ];
      cls "T1" ~super:"Thread" ~fields:[ "s"; "q"; "st" ]
        [
          meth "init" [ "s"; "q"; "st" ]
            [
              fwrite "this" "s" "s";
              fwrite "this" "q" "q";
              fwrite "this" "st" "st";
            ];
          meth "run" []
            [
              fread "d" "this" "s";
              fread "q" "this" "q";
              fread "st" "this" "st";
              new_ "t2" "T2" [ "d"; "q" ];
              start "t2";
              call "st" "go" [ "d" ];
              join "t2";
              fread "x" "d" "w";
              ret None;
            ];
        ];
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "d" "Data" [];
              new_ "q" "Data" [];
              new_ "st" "Starter" [];
              call "st" "go" [ "d" ];
              new_ "t1" "T1" [ "d"; "q"; "st" ];
              start "t1";
              fread "y" "d" "v";
              join "t1";
              wait "q";
              fread "z" "d" "w";
              ret None;
            ];
        ];
    ]

let test_labels_non_tree () =
  List.iter
    (fun policy ->
      let _, g = build ~policy (non_tree_prog ()) in
      let name = Context.policy_name policy in
      check_bool (name ^ ": join edges") true (Graph.join_edges g <> []);
      check_bool (name ^ ": semaphore edge") true (Graph.sem_edges g <> []);
      check_labels_against_bfs name g)
    [ Context.Insensitive; Context.Korigin 1 ];
  (* under 0-ctx the helper's one start site has two spawn parents *)
  let _, g = build ~policy:Context.Insensitive (non_tree_prog ()) in
  let parents c =
    List.filter_map
      (fun (p, c', _) -> if c' = c then Some p else None)
      (Graph.spawn_edges g)
    |> List.sort_uniq compare
  in
  check_bool "an origin with two spawn parents" true
    (List.exists
       (fun (_, c, _) -> List.length (parents c) >= 2)
       (Graph.spawn_edges g))

(* A starts B and B starts A: under 0-ctx the B origin is spawned from the
   A origin that B itself starts, walked before main's A, so each one's
   earliest spawn edge comes from the other — a parent cycle the spanning
   tree has to cut *)
let spawn_cycle_prog () =
  let worker name other =
    cls name ~super:"Thread" ~fields:[ "s" ]
      [
        meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
        meth "run" []
          [
            fread "d" "this" "s";
            fwrite "d" "v" "d";
            new_ "o" other [ "d" ];
            start "o";
            ret None;
          ];
      ]
  in
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      worker "A" "B";
      worker "B" "A";
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "d" "Data" [];
              new_ "a" "A" [ "d" ];
              start "a";
              fread "x" "d" "v";
              ret None;
            ];
        ];
    ]

let test_labels_spawn_cycle () =
  let _, g = build ~policy:Context.Insensitive (spawn_cycle_prog ()) in
  (* each origin's spawn edge with the smallest node id *)
  let first = Hashtbl.create 8 in
  List.iter
    (fun (p, c, sid) ->
      match Hashtbl.find_opt first c with
      | Some (_, s) when s <= sid -> ()
      | _ -> Hashtbl.replace first c (p, sid))
    (Graph.spawn_edges g);
  let parent c = Option.map fst (Hashtbl.find_opt first c) in
  check_bool "earliest spawn edges form a cycle" true
    (Hashtbl.fold
       (fun c (p, _) acc -> acc || (p <> c && parent p = Some c))
       first false);
  check_labels_against_bfs "spawn cycle" g

(* eventstorm's shape: the chainstorm spec with thread and event classes
   ×4, a near-tree of ~600 spawn edges *)
let test_labels_chainstorm () =
  let open O2_workloads.Synth in
  let s = find "chainstorm" in
  let s =
    {
      s with
      s_thread_classes = 4 * s.s_thread_classes;
      s_event_classes = 4 * s.s_event_classes;
    }
  in
  let _, g = build (program s) in
  check_labels_against_bfs "chainstorm x4" g

(* the "HB closure = BFS oracle" property sees non-tree edges: a sample of
   the generator as large as the property's draws joins and semaphore
   edges *)
let test_generator_non_tree () =
  let specs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:60
      O2_test_helpers.Gen.spec_gen
  in
  let with_non_tree =
    List.filter
      (fun spec ->
        let _, g = build (O2_test_helpers.Gen.program_of_spec spec) in
        non_tree_edges g > 0)
      specs
  in
  check_bool "some sampled program has a non-tree edge" true
    (with_non_tree <> [])

let () =
  Alcotest.run "shb"
    [
      ( "lockset",
        [
          Alcotest.test_case "canonical ids" `Quick test_lockset_canonical;
          Alcotest.test_case "acquire" `Quick test_lockset_acquire;
          Alcotest.test_case "disjoint+cache" `Quick test_lockset_disjoint_cache;
          QCheck_alcotest.to_alcotest prop_lockset_id_iff_set;
          QCheck_alcotest.to_alcotest prop_lockset_disjoint_model;
        ] );
      ( "graph",
        [
          Alcotest.test_case "nodes emitted (Table 4)" `Quick
            test_nodes_emitted;
          Alcotest.test_case "ids monotone" `Quick test_ids_monotone;
          Alcotest.test_case "locksets on accesses" `Quick
            test_lockset_on_access;
          Alcotest.test_case "ambiguous lock not must" `Quick
            test_multi_pts_lock_is_not_must;
        ] );
      ( "happens-before",
        [
          Alcotest.test_case "intra-origin order" `Quick test_hb_intra_origin;
          Alcotest.test_case "spawn edge" `Quick test_hb_spawn_edge;
          Alcotest.test_case "post-spawn unordered" `Quick
            test_hb_after_spawn_not_ordered;
          Alcotest.test_case "join edge" `Quick test_hb_join_edge;
          Alcotest.test_case "join on an unstarted thread" `Quick
            test_join_unstarted_thread;
          Alcotest.test_case "transitive spawns" `Quick
            test_hb_transitive_spawn_chain;
          QCheck_alcotest.to_alcotest prop_hb_closure_matches_bfs;
          Alcotest.test_case "labels: non-tree edges" `Quick
            test_labels_non_tree;
          Alcotest.test_case "labels: spawn cycle" `Quick
            test_labels_spawn_cycle;
          Alcotest.test_case "labels: chainstorm x4" `Quick
            test_labels_chainstorm;
          Alcotest.test_case "generator draws non-tree edges" `Quick
            test_generator_non_tree;
        ] );
      ( "events",
        [ Alcotest.test_case "dispatcher lock" `Quick test_dispatcher_lock ] );
      ( "lock-region",
        [
          Alcotest.test_case "merging" `Quick test_lock_region_merging;
          Alcotest.test_case "reset at spawn" `Quick
            test_lock_region_reset_at_spawn;
          Alcotest.test_case "self-parallel policies" `Quick
            test_self_parallel_loop_spawn;
        ] );
    ]
