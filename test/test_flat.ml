(* Flat-IR stages against their references: SHB construction, race
   detection and the OSA scan each have one engine, reading the flat
   opcode streams (SHB and OSA through the one origin walker,
   {!Walk.iter_origins}). {!O2_fuzz.Ref_stages.check} compares each with
   the seed's engine, and the walker's event streams are compared with
   the reference AST walk, on one solve, across every bundled model ×
   context policy × [serial_events]/[lock_region] setting, zookeeper, every named
   synthetic workload under 1-origin and 0-ctx, and random programs; that
   detection reports races only on OSA-shared locations; plus unit
   coverage for the lowering invariants themselves. *)

open O2_pta

let check_int = Alcotest.(check int)

let policies =
  [ Context.Insensitive; Context.Kcfa 2; Context.Kobj 2; Context.Korigin 1 ]

(* The origin walker against the reference AST walk, per origin: the
   (sid, tid, is_write) access stream in order, the sids of every call,
   [new] and static call, and the statement count *)
let check_walker label a =
  let fl = a.Solver.flat in
  let n = Array.length a.Solver.spawns in
  let accesses = Array.make n [] and calls = Array.make n [] in
  let scanned =
    Walk.iter_origins a (fun sp ->
        let o = sp.Solver.sp_id in
        {
          Walk.ignore_all with
          access =
            (fun sid tid w -> accesses.(o) <- (sid, tid, w) :: accesses.(o));
          call = (fun sid -> calls.(o) <- sid :: calls.(o));
        })
  in
  let ref_scanned = ref 0 in
  Array.iter
    (fun (sp : Solver.spawn) ->
      let o = sp.Solver.sp_id in
      let ref_accesses = ref [] and ref_calls = ref [] in
      O2_fuzz.Ref_stages.iter_origin a sp (fun m ctx s ->
          incr ref_scanned;
          (match s.O2_ir.Ast.sk with
          | O2_ir.Ast.Call _ | O2_ir.Ast.StaticCall _ | O2_ir.Ast.New _ ->
              ref_calls := s.O2_ir.Ast.sid :: !ref_calls
          | _ -> ());
          match O2_fuzz.Ref_stages.of_stmt a m ctx s with
          | Some (targets, w) ->
              List.iter
                (fun t ->
                  let tid = Option.get (Access.tid_of fl t) in
                  ref_accesses := (s.O2_ir.Ast.sid, tid, w) :: !ref_accesses)
                targets
          | None -> ());
      if accesses.(o) <> !ref_accesses then
        Alcotest.failf "%s walker: origin %d accesses differ (%d vs %d)" label
          o
          (List.length accesses.(o))
          (List.length !ref_accesses);
      if calls.(o) <> !ref_calls then
        Alcotest.failf "%s walker: origin %d calls differ" label o)
    a.Solver.spawns;
  check_int (label ^ " walker: scanned = AST statements") !ref_scanned scanned;
  let m = O2_util.Metrics.create () in
  ignore (O2_osa.Osa.run ~metrics:m a);
  check_int
    (label ^ " walker: scanned = osa.stmts_scanned")
    (O2_util.Metrics.get m "osa.stmts_scanned")
    scanned

let check_stages ?serial_events ?lock_region label a =
  let g = O2_shb.Graph.build ?serial_events ?lock_region a in
  List.iter
    (fun (stage, detail) -> Alcotest.failf "%s %s: %s" label stage detail)
    (O2_fuzz.Ref_stages.check ?serial_events ?lock_region a g
       (O2_race.Detect.run g));
  check_walker label a

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

(* every named synthetic workload; chainstorm and hbmix have groups whose
   origins are HB-related to one another, so their origin blocks depend on
   nonzero relation rows and columns *)
let test_named_specs_parity () =
  let open O2_workloads.Synth in
  List.iter
    (fun spec ->
      let p = program spec in
      List.iter
        (fun policy ->
          check_stages
            (Printf.sprintf "%s/%s" spec.s_name (Context.policy_name policy))
            (Solver.analyze ~policy p))
        [ Context.Korigin 1; Context.Insensitive ])
    (dacapo @ android @ distributed @ capps @ stress)

(* ---------------- detection within OSA ---------------- *)

(* Detection keeps a location's accesses by OSA's sharing rule (a writer
   and two accessors, a self-parallel origin counting as two), so every
   location it reports a race on must be OSA-shared *)
let check_raced_shared label a =
  let report = O2_race.Detect.run (O2_shb.Graph.build a) in
  let osa = O2_osa.Osa.run a in
  List.iter
    (fun (r : O2_race.Detect.race) ->
      if not (O2_osa.Osa.is_shared_target osa r.r_target) then
        Alcotest.failf "%s: race on %s, which OSA calls local" label
          (Format.asprintf "%a" (Access.pp_target a) r.r_target))
    report.O2_race.Detect.races

let test_raced_shared () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      List.iter
        (fun policy ->
          check_raced_shared
            (Printf.sprintf "%s/%s" m.name (Context.policy_name policy))
            (Solver.analyze ~policy (m.program ())))
        policies)
    O2_workloads.Models.all;
  let open O2_workloads.Synth in
  List.iter
    (fun spec ->
      let p = program spec in
      List.iter
        (fun policy ->
          check_raced_shared
            (Printf.sprintf "%s/%s" spec.s_name (Context.policy_name policy))
            (Solver.analyze ~policy p))
        [ Context.Korigin 1; Context.Insensitive ])
    (dacapo @ android @ distributed @ capps @ stress)

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
          Alcotest.test_case "named specs x policies" `Quick
            test_named_specs_parity;
          QCheck_alcotest.to_alcotest prop_flat_parity;
        ] );
      ( "osa",
        [
          Alcotest.test_case "raced locations are OSA-shared" `Quick
            test_raced_shared;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "Flat.check on corpus" `Quick test_flat_check;
          Alcotest.test_case "tid round trip" `Quick test_tid_roundtrip;
        ] );
    ]
