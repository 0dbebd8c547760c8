(* The solver's contract: the difference-propagation worklist computes
   byte-for-byte the facts of the frozen reference solver
   ({!O2_fuzz.Ref_pta}). Plus unit coverage for the difference-propagation
   primitive the solver is built on. *)

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

(* The race models (buggy and fixed), the six bench workloads of
   test/golden/workloads.counters.expected, and one 200-node copy ring with
   an allocation at every node. *)
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
  @ [
      ( "copy-ring-200",
        fun () ->
          O2_frontend.Parser.parse_string
            (O2_test_helpers.Ring.copy_ring_src 200) );
    ]

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
      ( "delta",
        [ Alcotest.test_case "take_fresh dedups" `Quick test_take_fresh ] );
    ]
