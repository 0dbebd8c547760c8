(* Flat-IR stages against their references: SHB construction, race
   detection and the OSA scan each have one engine, a scan of the flat
   opcode streams. {!O2_fuzz.Ref_stages.check} compares each with the
   seed's engine on one solve, across every bundled model × context policy
   × [serial_events]/[lock_region] setting, zookeeper and random
   programs; plus unit coverage for the lowering invariants themselves. *)

open O2_pta

let check_int = Alcotest.(check int)

let policies =
  [ Context.Insensitive; Context.Kcfa 2; Context.Kobj 2; Context.Korigin 1 ]

let check_stages ?serial_events ?lock_region label a =
  let g = O2_shb.Graph.build ?serial_events ?lock_region a in
  List.iter
    (fun (stage, detail) -> Alcotest.failf "%s %s: %s" label stage detail)
    (O2_fuzz.Ref_stages.check ?serial_events ?lock_region a g
       (O2_race.Detect.run g))

(* ---------------- flat = reference across the model corpus ---------------- *)

let test_models_parity () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      List.iter
        (fun policy ->
          let a = Solver.analyze ~policy (m.program ()) in
          List.iter
            (fun (serial_events, lock_region) ->
              check_stages ~serial_events ~lock_region
                (Printf.sprintf "%s/%s/serial_events=%b/lock_region=%b"
                   m.name (Context.policy_name policy) serial_events
                   lock_region)
                a)
            [ (true, true); (false, true); (true, false) ])
        policies)
    O2_workloads.Models.all

(* the heaviest distributed workload *)
let test_zookeeper_parity () =
  let p = O2_workloads.Synth.program (O2_workloads.Synth.find "zookeeper") in
  let a = Solver.analyze ~policy:(Context.Korigin 1) p in
  check_stages "zookeeper" a

(* ---------------- random programs ---------------- *)

let prop_flat_parity =
  QCheck2.Test.make ~name:"flat pipeline = legacy oracles" ~count:40
    ~print:O2_test_helpers.Gen.print_spec O2_test_helpers.Gen.spec_gen
    (fun spec ->
      let p = O2_test_helpers.Gen.program_of_spec spec in
      let a = Solver.analyze ~policy:(Context.Korigin 1) p in
      check_stages "random program" a;
      true)

(* ---------------- lowering invariants ---------------- *)

let test_flat_check () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let a = Solver.analyze (m.program ()) in
      let fl = a.Solver.flat in
      O2_ir.Flat.check fl;
      Alcotest.(check bool)
        (m.name ^ " footprint")
        true
        (O2_ir.Flat.footprint fl > 0))
    O2_workloads.Models.all

let test_tid_roundtrip () =
  let p = O2_workloads.Synth.program (O2_workloads.Synth.find "zookeeper") in
  let a = Solver.analyze p in
  let fl = a.Solver.flat in
  let n_objs = Pag.n_objs a.Solver.pag in
  (* instance-field tids: oid/fid survive the mixed-radix round trip and
     never collide with the static range *)
  for oid = 0 to min 40 (n_objs - 1) do
    for fid = 0 to O2_ir.Flat.n_fields fl - 1 do
      let tid = O2_ir.Flat.tid_field fl ~oid ~fid in
      Alcotest.(check bool) "field tid dynamic" false
        (O2_ir.Flat.tid_is_static fl tid);
      check_int "tid_oid" oid (O2_ir.Flat.tid_oid fl tid);
      check_int "tid_fid" fid (O2_ir.Flat.tid_fid fl tid)
    done
  done;
  for s = 0 to O2_ir.Flat.n_statics fl - 1 do
    let tid = O2_ir.Flat.tid_static fl s in
    Alcotest.(check bool) "static tid static" true
      (O2_ir.Flat.tid_is_static fl tid)
  done

let () =
  Alcotest.run "flat"
    [
      ( "parity",
        [
          Alcotest.test_case "models x policies" `Quick test_models_parity;
          Alcotest.test_case "zookeeper" `Quick test_zookeeper_parity;
          QCheck_alcotest.to_alcotest prop_flat_parity;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "Flat.check on corpus" `Quick test_flat_check;
          Alcotest.test_case "tid round trip" `Quick test_tid_roundtrip;
        ] );
    ]
