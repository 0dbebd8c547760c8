(* The solver's contract: the difference-propagation worklist computes
   byte-for-byte the facts of the frozen reference solver
   ({!O2_fuzz.Ref_pta}). Plus unit coverage for the cycle-collapsing and
   difference-propagation primitives the solver is built on. *)

open O2_pta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let policies =
  [
    Context.Insensitive;
    Context.Kcfa 2;
    Context.Kobj 2;
    Context.Korigin 1;
  ]

(* ---------------- engine ≡ oracle ---------------- *)

(* The race models (buggy and fixed) and the six bench workloads of
   test/golden/workloads.counters.expected. *)
let oracle_programs =
  List.concat_map
    (fun (m : O2_workloads.Models.model) ->
      [ (m.name, m.program); (m.name ^ "_fixed", m.fixed) ])
    O2_workloads.Models.all
  @ List.map
      (fun name ->
        ( "synth:" ^ name,
          fun () -> O2_workloads.Synth.(program (find name)) ))
      [ "lusearch"; "memcached"; "zookeeper"; "redis"; "cyclic"; "chainstorm" ]

let test_oracle_equivalence () =
  List.iter
    (fun (name, program) ->
      List.iter
        (fun policy ->
          let p = program () in
          check_str
            (Printf.sprintf "%s/%s" name (Context.policy_name policy))
            O2_fuzz.Ref_pta.(fingerprint (analyze ~policy p))
            (Solver.fingerprint (Solver.analyze ~policy p)))
        policies)
    oracle_programs

(* ---------------- cycle collapsing ---------------- *)

let nvar v = Pag.NVar ("C", "m", v, Context.Cempty)
let mkobj g site = Pag.obj_id g { Pag.ob_site = site; ob_class = "O"; ob_hctx = Context.Cempty }

let test_scc_collapse () =
  let g = Pag.create () in
  let a = Pag.add_node g (nvar "a") in
  let b = Pag.add_node g (nvar "b") in
  let c = Pag.add_node g (nvar "c") in
  let d = Pag.add_node g (nvar "d") in
  (* a -> b -> c -> a cycle, with an exit edge c -> d *)
  Pag.add_copy g ~src:a ~dst:b;
  Pag.add_copy g ~src:b ~dst:c;
  Pag.add_copy g ~src:c ~dst:a;
  Pag.add_copy g ~src:c ~dst:d;
  let o1 = mkobj g 1 in
  Pag.add_obj g a o1;
  Pag.solve g;
  let merged = Pag.collapse_sccs g in
  check_int "two members aliased onto the rep" 2 merged;
  check_int "n_collapsed counter" 2 (Pag.n_collapsed g);
  let rep = Pag.find g a in
  check_int "b joins a's class" rep (Pag.find g b);
  check_int "c joins a's class" rep (Pag.find g c);
  check_bool "d stays out" true (Pag.find g d <> rep);
  (* aliased ids keep answering pts queries *)
  List.iter
    (fun n -> check_int "cycle member sees o1" 1 (O2_util.Bitset.cardinal (Pag.pts g n)))
    [ a; b; c; d ];
  (* propagation through the collapsed class still reaches the exit *)
  let o2 = mkobj g 2 in
  Pag.add_obj g b o2;
  Pag.solve g;
  List.iter
    (fun n -> check_int "new obj flows everywhere" 2 (O2_util.Bitset.cardinal (Pag.pts g n)))
    [ a; b; c; d ]

let test_scc_watched_excluded () =
  let g = Pag.create () in
  let a = Pag.add_node g (nvar "a") in
  let b = Pag.add_node g (nvar "b") in
  Pag.add_copy g ~src:a ~dst:b;
  Pag.add_copy g ~src:b ~dst:a;
  let fired = ref [] in
  Pag.add_watcher g a (fun o -> fired := o :: !fired);
  let merged = Pag.collapse_sccs g in
  (* the only unwatched member is [b]: nothing to merge *)
  check_int "watched cycle left alone" 0 merged;
  check_bool "a not aliased" true (Pag.find g a = a);
  check_bool "b not aliased" true (Pag.find g b = b);
  let o1 = mkobj g 1 in
  Pag.add_obj g b o1;
  Pag.solve g;
  check_int "watcher saw the object" 1 (List.length !fired)

(* a cycle closed by a new edge and collapsed BEFORE that edge's delta
   propagates: the merge must not mark in-flight candidates as confirmed,
   or facts silently vanish downstream of the collapsed class *)
let test_scc_collapse_inflight_delta () =
  let g = Pag.create () in
  let a = Pag.add_node g (nvar "a") in
  let b = Pag.add_node g (nvar "b") in
  let d = Pag.add_node g (nvar "d") in
  Pag.add_copy g ~src:a ~dst:b;
  Pag.add_copy g ~src:a ~dst:d;
  let o = mkobj g 1 in
  Pag.add_obj g b o;
  Pag.solve g;
  (* pts(b) = {o} is confirmed; a and d are empty *)
  check_bool "d empty before the cycle closes" true
    (O2_util.Bitset.is_empty (Pag.pts g d));
  (* close the cycle: add_copy parks pts(b) in delta(a); collapse while
     the delta is still in flight *)
  Pag.add_copy g ~src:b ~dst:a;
  check_int "one member aliased" 1 (Pag.collapse_sccs g);
  Pag.solve g;
  List.iter
    (fun x ->
      check_bool "o survives the collapse" true
        (O2_util.Bitset.mem (Pag.pts g x) o))
    [ a; b; d ]

(* collapsing rewrites the edge table onto canonical keys: a later add_copy
   of an edge the representative already carries must dedup, and n_edges
   must track the live canonical count *)
let test_scc_edges_canonicalized () =
  let g = Pag.create () in
  let a = Pag.add_node g (nvar "a") in
  let b = Pag.add_node g (nvar "b") in
  let c = Pag.add_node g (nvar "c") in
  let d = Pag.add_node g (nvar "d") in
  Pag.add_copy g ~src:a ~dst:b;
  Pag.add_copy g ~src:b ~dst:c;
  Pag.add_copy g ~src:c ~dst:a;
  Pag.add_copy g ~src:b ~dst:d;
  Pag.add_copy g ~src:c ~dst:d;
  check_int "five edges before collapse" 5 (Pag.n_edges g);
  check_int "two members aliased" 2 (Pag.collapse_sccs g);
  (* the three cycle edges become self-loops and the two exits merge *)
  check_int "one canonical edge after collapse" 1 (Pag.n_edges g);
  Pag.add_copy g ~src:b ~dst:d;
  check_int "canonical re-add dedups" 1 (Pag.n_edges g);
  let o = mkobj g 1 in
  Pag.add_obj g a o;
  Pag.solve g;
  check_bool "exit still reached" true (O2_util.Bitset.mem (Pag.pts g d) o)

(* ---------------- difference-propagation primitive ---------------- *)

let test_take_fresh () =
  let pts = O2_util.Bitset.create () in
  let delta = O2_util.Bitset.create () in
  ignore (O2_util.Bitset.add pts 3);
  ignore (O2_util.Bitset.add delta 3);
  (* redundant candidate *)
  ignore (O2_util.Bitset.add delta 65);
  (* fresh, in a higher word *)
  (match O2_util.Bitset.take_fresh ~pts ~delta with
  | None -> Alcotest.fail "expected fresh objects"
  | Some fresh ->
      check_int "one fresh bit" 1 (O2_util.Bitset.cardinal fresh);
      check_bool "the fresh bit is 65" true (O2_util.Bitset.mem fresh 65));
  check_bool "fresh committed to pts" true (O2_util.Bitset.mem pts 65);
  check_bool "delta drained" true (O2_util.Bitset.is_empty delta);
  (* a fully redundant delta pops to nothing *)
  ignore (O2_util.Bitset.add delta 3);
  ignore (O2_util.Bitset.add delta 65);
  check_bool "no fresh on redundant pop" true
    (O2_util.Bitset.take_fresh ~pts ~delta = None)

let () =
  Alcotest.run "parallel"
    [
      ( "oracle",
        [
          Alcotest.test_case "fingerprints: engine = oracle" `Quick
            test_oracle_equivalence;
        ] );
      ( "scc",
        [
          Alcotest.test_case "copy cycle collapses" `Quick test_scc_collapse;
          Alcotest.test_case "watched nodes excluded" `Quick
            test_scc_watched_excluded;
          Alcotest.test_case "in-flight delta survives collapse" `Quick
            test_scc_collapse_inflight_delta;
          Alcotest.test_case "edge table canonicalized" `Quick
            test_scc_edges_canonicalized;
        ] );
      ( "delta",
        [ Alcotest.test_case "take_fresh dedups" `Quick test_take_fresh ] );
    ]
