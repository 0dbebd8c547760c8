(* Cross-cutting integration tests: dynamic ⇒ static soundness, the full O2
   pipeline on the models and synthetic benchmarks, and the precision
   relations across policies that the paper's tables rest on. *)

open O2_pta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Site-pair soundness is checked against the unmerged SHB graph:
   lock-region merging (soundly) collapses same-region repeats into one
   representative access, so the merged report covers a dynamic race by
   field but not necessarily by exact site pair. *)
let static_pairs ?(policy = Context.Korigin 1) p =
  let cfg = { O2.Config.default with policy; lock_region = false } in
  let r = (O2.run cfg p).O2.report in
  List.map
    (fun (race : O2_race.Detect.race) ->
      ( min race.r_a.O2_shb.Graph.n_sid race.r_b.O2_shb.Graph.n_sid,
        max race.r_a.O2_shb.Graph.n_sid race.r_b.O2_shb.Graph.n_sid ))
    r.O2_race.Detect.races
  |> List.sort_uniq compare

let static_fields ?(policy = Context.Korigin 1) p =
  let r = (O2.run { O2.Config.default with policy } p).O2.report in
  List.map
    (fun (race : O2_race.Detect.race) ->
      match race.r_target with
      | Access.Tfield (_, f) -> f
      | Access.Tstatic (c, f) -> c ^ "::" ^ f)
    r.O2_race.Detect.races
  |> List.sort_uniq compare

let dynamic_covered p =
  let stat = static_pairs p in
  let fields = static_fields p in
  List.for_all
    (fun (d : O2_runtime.Dynrace.race) ->
      List.mem (d.d_sid_a, d.d_sid_b) stat && List.mem d.d_field fields)
    (O2_runtime.Dynrace.check ~seeds:[ 0; 1; 2; 3; 4; 5 ] p)

(* every dynamically-observed race in every Table 10 model is statically
   reported: the static analysis is sound on the explored schedules *)
let test_models_dynamic_soundness () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      check_bool (m.name ^ " sound") true (dynamic_covered (m.program ())))
    O2_workloads.Models.all

(* fixed models are dynamically race-free too *)
let test_fixed_models_dynamically_clean () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      check_int
        (m.name ^ " fixed dyn")
        0
        (List.length (O2_runtime.Dynrace.check ~seeds:[ 0; 1; 2 ] (m.fixed ()))))
    O2_workloads.Models.all

(* the fixed models still execute to completion (the locks don't deadlock) *)
let test_fixed_models_run () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let o = O2_runtime.Interp.run ~seed:1 (m.fixed ()) in
      check_bool (m.name ^ " fixed runs") true
        (o.O2_runtime.Interp.completed && not o.O2_runtime.Interp.deadlocked))
    O2_workloads.Models.all

(* systematic exploration: every race in any explored schedule is in the
   static report — a stronger ground truth than random sampling *)
let test_models_explore_soundness () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let p = m.program () in
      let stat = static_pairs p in
      let fields = static_fields p in
      let r = O2_runtime.Explore.explore ~max_runs:400 p in
      List.iter
        (fun (d : O2_runtime.Dynrace.race) ->
          check_bool
            (Printf.sprintf "%s explored race (%d,%d) reported" m.name
               d.d_sid_a d.d_sid_b)
            true
            (List.mem (d.d_sid_a, d.d_sid_b) stat && List.mem d.d_field fields))
        r.O2_runtime.Explore.races)
    O2_workloads.Models.all

(* the capstone validation: on every Table 10 model, systematic
   exploration (with partial-order reduction) dynamically realizes exactly
   the races O2 reports statically — which are exactly the paper's counts.
   Static = dynamic = published, per model. *)
let test_models_races_dynamically_realizable () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let r = O2_runtime.Explore.explore ~max_runs:6000 (m.program ()) in
      check_int
        (m.name ^ " dynamic confirmations")
        m.expected_races
        (List.length r.O2_runtime.Explore.races))
    O2_workloads.Models.all

(* POR preserves the observable behaviours: on a small program the reduced
   exploration finds the same race set as the unreduced one *)
let test_por_equivalent () =
  let m = O2_workloads.Models.find "hbase" in
  let p = m.program () in
  let keyset (r : O2_runtime.Explore.report) =
    List.map
      (fun (d : O2_runtime.Dynrace.race) -> (d.d_sid_a, d.d_sid_b, d.d_field))
      r.O2_runtime.Explore.races
    |> List.sort_uniq compare
  in
  let reduced = O2_runtime.Explore.explore ~max_runs:50_000 p in
  check_bool "reduced is exhaustive" true reduced.O2_runtime.Explore.exhaustive;
  (* unreduced: drive Interp directly with the same DFS but visible_only off
     is not exposed by Explore; compare against broad random sampling *)
  let sampled =
    O2_runtime.Dynrace.check ~seeds:(List.init 64 (fun i -> i)) p
  in
  let sampled_keys =
    List.map
      (fun (d : O2_runtime.Dynrace.race) -> (d.d_sid_a, d.d_sid_b, d.d_field))
      sampled
    |> List.sort_uniq compare
  in
  check_bool "sampling finds nothing the reduced DFS missed" true
    (List.for_all (fun k -> List.mem k (keyset reduced)) sampled_keys)

(* random programs: dynamic ⇒ static, under both O2 and 0-ctx *)
let prop_dynamic_implies_static =
  QCheck2.Test.make ~name:"dynamic race ⇒ static race (O2)" ~count:40
    ~print:O2_test_helpers.Gen.print_spec O2_test_helpers.Gen.spec_gen
    (fun spec ->
      dynamic_covered (O2_test_helpers.Gen.program_of_spec spec))

(* every model analyzes cleanly under every policy, and the origin policy
   never reports more than the 0-ctx baseline *)
let test_models_policy_matrix () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let p = m.program () in
      let counts =
        List.map
          (fun policy ->
            let r = (O2.run { O2.Config.default with policy } p).O2.report in
            O2_race.Detect.n_races r)
          [
            Context.Insensitive; Context.Kcfa 1; Context.Kcfa 2;
            Context.Kobj 1; Context.Kobj 2; Context.Korigin 1;
            Context.Korigin 2;
          ]
      in
      let zero_ctx = List.hd counts in
      let o2 = List.nth counts 5 in
      check_bool (m.name ^ " O2 <= 0-ctx") true (o2 <= zero_ctx);
      check_int (m.name ^ " O2 exact") m.expected_races o2)
    O2_workloads.Models.all

(* synthetic suite invariants that the benchmark harness relies on *)
let test_synth_policy_spread () =
  let spec = O2_workloads.Synth.find "avrora" in
  let p = O2_workloads.Synth.program spec in
  let races policy =
    let r = (O2.run { O2.Config.default with policy } p).O2.report in
    O2_race.Detect.n_races r
  in
  let r0 = races Context.Insensitive in
  let r1 = races (Context.Kcfa 1) in
  let ro = races (Context.Korigin 1) in
  check_bool "0-ctx noisiest" true (r0 > r1);
  check_bool "O2 most precise" true (ro < r1);
  check_bool "O2 still finds the seeded races" true (ro > 0)

let test_synth_all_resolve () =
  List.iter
    (fun (s : O2_workloads.Synth.spec) ->
      let p = O2_workloads.Synth.program s in
      check_int (s.s_name ^ " lints") 0
        (List.length (O2_ir.Wellformed.check p)))
    O2_workloads.Synth.(dacapo @ android @ distributed @ capps)

let test_synth_origin_counts () =
  (* #O grows with the spec's thread/event counts; telegram is the most
     origin-heavy app as in Table 5 *)
  let n name =
    let p = O2_workloads.Synth.program (O2_workloads.Synth.find name) in
    Solver.n_origins (Solver.analyze ~policy:(Context.Korigin 1) p)
  in
  check_bool "telegram >> avrora" true (n "telegram" > 10 * n "avrora");
  check_bool "zookeeper large" true (n "zookeeper" > n "lusearch")

let test_scaling_generator_linear () =
  let stmts n = O2_ir.Program.n_stmts (O2_workloads.Synth.scaling ~n) in
  let s10 = stmts 10 and s20 = stmts 20 in
  check_bool "monotone" true (s20 > s10);
  (* roughly linear: doubling depth shouldn't quadruple size *)
  check_bool "sub-quadratic" true (s20 < 3 * s10)

(* the full pipeline via the O2 facade *)
let test_o2_facade () =
  let m = O2_workloads.Models.find "memcached" in
  let r = O2.run O2.Config.default (m.program ()) in
  check_int "races via facade" 3 (O2.n_races r);
  check_bool "elapsed recorded" true (r.O2.elapsed >= 0.0);
  check_bool "origins" true (O2.n_origins r >= 3);
  check_bool "shared locations nonempty" true (O2.shared_locations r <> []);
  let report = Format.asprintf "%a" (O2.pp_report r) () in
  check_bool "printable" true (String.length report > 0)

(* the whole pipeline agrees between a parsed .cir round-trip and the
   original program *)
let test_roundtrip_same_races () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let p = m.program () in
      let src = O2_ir.Pp.program_to_string p in
      let p2 = O2_frontend.Parser.parse_string src in
      let n p =
        let r = (O2.run O2.Config.default p).O2.report in
        O2_race.Detect.n_races r
      in
      check_int (m.name ^ " roundtrip") (n p) (n p2))
    O2_workloads.Models.all

let () =
  Alcotest.run "integration"
    [
      ( "soundness",
        [
          Alcotest.test_case "models: dynamic ⇒ static" `Slow
            test_models_dynamic_soundness;
          Alcotest.test_case "fixed models dyn clean" `Slow
            test_fixed_models_dynamically_clean;
          Alcotest.test_case "fixed models run" `Quick test_fixed_models_run;
          Alcotest.test_case "models: explored ⇒ static" `Slow
            test_models_explore_soundness;
          Alcotest.test_case "models: all races dynamically realizable" `Slow
            test_models_races_dynamically_realizable;
          Alcotest.test_case "POR equivalence" `Slow test_por_equivalent;
          Alcotest.test_case "models: policy matrix" `Quick
            test_models_policy_matrix;
          QCheck_alcotest.to_alcotest prop_dynamic_implies_static;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "policy spread" `Quick test_synth_policy_spread;
          Alcotest.test_case "all specs resolve" `Quick test_synth_all_resolve;
          Alcotest.test_case "origin counts" `Quick test_synth_origin_counts;
          Alcotest.test_case "scaling linear" `Quick
            test_scaling_generator_linear;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "facade" `Quick test_o2_facade;
          Alcotest.test_case "parse round-trip races" `Quick
            test_roundtrip_same_races;
        ] );
    ]
