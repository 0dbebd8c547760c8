(* The observability layer: Metrics primitives, pipeline instrumentation
   coverage, and the O2.Config / render API around it. *)

open O2_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------------- primitives ---------------- *)

let test_counters () =
  let m = Metrics.create () in
  check_int "absent reads 0" 0 (Metrics.get m "x");
  Metrics.incr m "x";
  Metrics.add m "x" 4;
  check_int "incr+add" 5 (Metrics.get m "x");
  Metrics.set m "x" 2;
  check_int "set overwrites" 2 (Metrics.get m "x");
  (* the pre-resolved ref is the same cell *)
  let r = Metrics.counter m "x" in
  incr r;
  check_int "ref aliases counter" 3 (Metrics.get m "x");
  Metrics.incr m "a";
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("a", 1); ("x", 3) ]
    (Metrics.counters m)

let test_timers () =
  let m = Metrics.create () in
  check "untouched timer is 0" true (Metrics.get_time m "t" = 0.);
  let v = Metrics.time m "t" (fun () -> 41 + 1) in
  check_int "returns result" 42 v;
  let t1 = Metrics.get_time m "t" in
  check "accumulated >= 0" true (t1 >= 0.);
  ignore (Metrics.time m "t" (fun () -> ()));
  check "accumulates across calls" true (Metrics.get_time m "t" >= t1);
  (* exception safety: duration still recorded, exception propagates *)
  (try Metrics.time m "boom" (fun () -> failwith "x") with Failure _ -> ());
  check "timer exists after raise" true
    (List.mem_assoc "boom" (Metrics.timers m))

let test_gauges () =
  let m = Metrics.create () in
  Metrics.gauge_set m "wl" 3;
  Metrics.gauge_add m "wl" 7;
  Metrics.gauge_add m "wl" (-6);
  check_int "peak survives drops" 10 (Metrics.gauge_peak m "wl");
  Alcotest.(check (list (triple string int int)))
    "current and peak"
    [ ("wl", 4, 10) ]
    (Metrics.gauges m)

let test_spans () =
  let m = Metrics.create () in
  let v =
    Metrics.span m "outer" (fun () ->
        Metrics.span m "inner" (fun () -> ());
        Metrics.span m "inner2" (fun () -> ());
        7)
  in
  check_int "returns result" 7 v;
  (try
     Metrics.span m "fails" (fun () ->
         Metrics.span m "child" (fun () -> failwith "x"))
   with Failure _ -> ());
  let paths = List.map (fun s -> s.Metrics.sp_path) (Metrics.spans m) in
  Alcotest.(check (list string))
    "nested slash paths, start order"
    [ "outer"; "outer/inner"; "outer/inner2"; "fails"; "fails/child" ]
    paths;
  List.iter
    (fun s ->
      check ("closed: " ^ s.Metrics.sp_path) true (s.Metrics.sp_elapsed >= 0.))
    (Metrics.spans m);
  let depth p =
    let s = List.find (fun s -> s.Metrics.sp_path = p) (Metrics.spans m) in
    s.Metrics.sp_depth
  in
  check_int "root depth" 0 (depth "outer");
  check_int "child depth" 1 (depth "outer/inner")

let test_json_export () =
  let m = Metrics.create () in
  Metrics.set m "n" 3;
  Metrics.gauge_set m "g" 2;
  ignore (Metrics.time m "t" (fun () -> ()));
  Metrics.span m {|sp"1|} (fun () -> ());
  let j = Metrics.to_json m in
  let has needle =
    let ln = String.length needle and lj = String.length j in
    let rec go i = i + ln <= lj && (String.sub j i ln = needle || go (i + 1)) in
    go 0
  in
  check "counters object" true (has {|"counters":{"n":3}|});
  check "gauge carries peak" true (has {|"g":{"current":2,"peak":2}|});
  check "quote escaped in span path" true (has {|sp\"1|});
  (* JSON lines: every line stands alone and is tagged *)
  let lines = String.split_on_char '\n' (String.trim (Metrics.to_json_lines m)) in
  check_int "one line per metric" 4 (List.length lines);
  List.iter
    (fun l ->
      check ("object: " ^ l) true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  (* the human table mentions everything too *)
  let table = Format.asprintf "%a" Metrics.pp m in
  check "table nonempty" true (String.length table > 0)

(* ---------------- pipeline instrumentation ---------------- *)

(* Every stage of an instrumented run must land its counters and span in
   the shared sink — the keys the --stats table and Tables 6/7 rely on. *)
let expected_counters =
  [
    "pta.pointers"; "pta.objects"; "pta.edges"; "pta.reached_methods";
    "pta.call_edges"; "pta.worklist_iters"; "pta.worklist_pushes";
    "pta.pts_adds"; "pta.pts_facts"; "pta.origins";
    "osa.stmts_scanned"; "osa.accesses"; "osa.locations";
    "osa.shared_locations";
    "shb.nodes"; "shb.access_nodes"; "shb.edges"; "shb.locksets";
    "shb.lockset_cache_hits"; "shb.lockset_cache_misses";
    "shb.hb_closure_size"; "shb.hb_queries";
    "race.pairs_checked"; "race.hb_pruned"; "race.lock_pruned";
    "race.class_pruned"; "race.candidates"; "race.races";
    "o2.races"; "o2.origins";
  ]

let instrumented_run () =
  let p = O2_workloads.Figures.figure2 () in
  let cfg = O2.Config.with_metrics O2.Config.default in
  let r = O2.run cfg p in
  let m =
    match r.O2.config.O2.Config.metrics with
    | Some m -> m
    | None -> Alcotest.fail "with_metrics did not attach a sink"
  in
  (r, m)

let test_pipeline_counters () =
  let _, m = instrumented_run () in
  let present = List.map fst (Metrics.counters m) in
  List.iter
    (fun k -> check ("counter recorded: " ^ k) true (List.mem k present))
    expected_counters;
  check "some pointers" true (Metrics.get m "pta.pointers" > 0);
  check "some SHB nodes" true (Metrics.get m "shb.nodes" > 0);
  check "pairs were checked" true (Metrics.get m "race.pairs_checked" > 0);
  check "worklist peaked above 0" true
    (Metrics.gauge_peak m "pta.worklist_peak" > 0)

let test_pipeline_spans () =
  let _, m = instrumented_run () in
  let paths = List.map (fun s -> s.Metrics.sp_path) (Metrics.spans m) in
  List.iter
    (fun p -> check ("span traced: " ^ p) true (List.mem p paths))
    [
      "analyze"; "analyze/pta"; "analyze/pta/pta.solve"; "analyze/shb";
      "analyze/shb/shb.build"; "analyze/race"; "analyze/race/race.detect";
      "analyze/osa"; "analyze/osa/osa.scan";
    ]

(* SHB construction names its phases: the walk, the semaphore edges and
   the HB labels run in that order, each a direct child of shb.build and
   inside its interval. *)
let test_shb_sub_spans () =
  let _, m = instrumented_run () in
  let find p =
    match
      List.find_opt (fun s -> s.Metrics.sp_path = p) (Metrics.spans m)
    with
    | Some s -> s
    | None -> Alcotest.fail ("span not traced: " ^ p)
  in
  let build = find "analyze/shb/shb.build" in
  let ends s = s.Metrics.sp_start +. s.Metrics.sp_elapsed in
  let subs =
    List.map
      (fun n -> find ("analyze/shb/shb.build/" ^ n))
      [ "shb.walk"; "shb.edges"; "shb.labels" ]
  in
  List.iter
    (fun s ->
      let p = s.Metrics.sp_path in
      check_int ("depth of " ^ p) (build.Metrics.sp_depth + 1)
        s.Metrics.sp_depth;
      check ("closed: " ^ p) true (s.Metrics.sp_elapsed >= 0.);
      check ("starts inside shb.build: " ^ p) true
        (s.Metrics.sp_start >= build.Metrics.sp_start);
      (* the same clock reading can round either way through [ends] *)
      check ("ends inside shb.build: " ^ p) true (ends s <= ends build +. 1e-9))
    subs;
  check "walk, edges, labels in order" true
    (List.map (fun s -> s.Metrics.sp_seq) subs
    = List.sort compare (List.map (fun s -> s.Metrics.sp_seq) subs))

(* Counters agree with the result the caller sees. *)
let test_counters_match_result () =
  let r, m = instrumented_run () in
  check_int "o2.races = n_races" (O2.n_races r) (Metrics.get m "o2.races");
  check_int "o2.origins = n_origins" (O2.n_origins r)
    (Metrics.get m "o2.origins");
  check_int "osa.shared_locations = |shared_locations|"
    (List.length (O2.shared_locations r))
    (Metrics.get m "osa.shared_locations")

(* ---------------- the Config / render API ---------------- *)

(* Attaching a metrics sink never changes what is detected. *)
let test_metrics_inert () =
  let p = O2_workloads.Figures.figure2 () in
  let new_r =
    O2.run
      { O2.Config.default with O2.Config.policy = O2_pta.Context.Insensitive }
      p
  in
  let instr =
    O2.run
      (O2.Config.with_metrics
         { O2.Config.default with
           O2.Config.policy = O2_pta.Context.Insensitive
         })
      p
  in
  check_int "metrics do not perturb detection" (O2.n_races new_r)
    (O2.n_races instr);
  check_str "renders identically modulo metrics" (O2.render new_r)
    (O2.render { instr with O2.config = O2.Config.default })

let test_render_formats () =
  let p = O2_workloads.Figures.figure2 () in
  let r, _ = instrumented_run () in
  let text = O2.render r in
  let json = O2.render ~format:`Json r in
  let has s needle =
    let ln = String.length needle and ls = String.length s in
    let rec go i = i + ln <= ls && (String.sub s i ln = needle || go (i + 1)) in
    go 0
  in
  check "text includes metrics table" true (has text "--- metrics ---");
  check "text includes a counter" true (has text "pta.pointers");
  check "json is an object" true (json.[0] = '{');
  check "json embeds metrics" true (has json {|"metrics":{"counters":|});
  check "json embeds spans" true (has json {|"path":"analyze/pta"|});
  (* without a sink, render output carries no metrics section *)
  let bare = O2.run O2.Config.default p in
  check "no table without sink" false (has (O2.render bare) "--- metrics ---");
  check "no json field without sink" false
    (has (O2.render ~format:`Json bare) {|"metrics"|})

let () =
  Alcotest.run "metrics"
    [
      ( "primitives",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "timers" `Quick test_timers;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "json export" `Quick test_json_export;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "stage counters" `Quick test_pipeline_counters;
          Alcotest.test_case "stage spans" `Quick test_pipeline_spans;
          Alcotest.test_case "shb sub-spans" `Quick test_shb_sub_spans;
          Alcotest.test_case "counters match result" `Quick
            test_counters_match_result;
        ] );
      ( "api",
        [
          Alcotest.test_case "metrics inert" `Quick test_metrics_inert;
          Alcotest.test_case "render formats" `Quick test_render_formats;
        ] );
    ]
