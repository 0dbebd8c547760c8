(* Corpus batch driver: fault isolation (ok + parse-error + over-budget
   files in one run), per-file byte-identity with serial `o2 analyze`,
   rerun cache hits keyed by source digest, and jobs>1 determinism of the
   aggregate report. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------------- corpus fixtures ---------------- *)

let racy_src =
  "main M;\n\
   class D { field f; }\n\
   class T extends Thread {\n\
  \  field s;\n\
  \  method init(s) { this.s = s; }\n\
  \  method run() { local d; d = this.s; d.f = d; }\n\
   }\n\
   class M {\n\
  \  static method main() {\n\
  \    local d, t1, t2;\n\
  \    d = new D();\n\
  \    t1 = new T(d);\n\
  \    t2 = new T(d);\n\
  \    start t1;\n\
  \    start t2;\n\
  \  }\n\
   }\n"

let clean_src =
  "main M;\n\
   class D { field f; }\n\
   class M {\n\
  \  static method main() { local d; d = new D(); d.f = d; }\n\
   }\n"

let bad_src = "this is not a CIR program at all {\n"

(* a long copy chain: every assignment is a PTA worklist push, so this file
   needs far more worklist steps than the small fixtures — a per-file step
   ceiling between the two separates them within one corpus run *)
let heavy_src =
  let b = Buffer.create 8192 in
  Buffer.add_string b "main M;\nclass D { field f; }\nclass M {\n";
  Buffer.add_string b "  static method main() {\n    local x0";
  for i = 1 to 2000 do
    Buffer.add_string b (Printf.sprintf ", x%d" i)
  done;
  Buffer.add_string b ";\n    x0 = new D();\n";
  for i = 1 to 2000 do
    Buffer.add_string b (Printf.sprintf "    x%d = x%d;\n" i (i - 1))
  done;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "o2_batch_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let write_file dir name content =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let find_entry r file =
  List.find
    (fun (e : O2_batch.entry) -> Filename.basename e.O2_batch.e_file = file)
    r.O2_batch.b_entries

(* ---------------- enumeration ---------------- *)

let test_enumerate () =
  let dir = fresh_dir () in
  let a = write_file dir "a.cir" clean_src in
  let b = write_file dir "b.cir" racy_src in
  ignore (write_file dir "notes.txt" "not a corpus member");
  (match O2_batch.enumerate [ dir ] with
  | Ok files -> Alcotest.(check (list string)) "only sorted .cir" [ a; b ] files
  | Error e -> Alcotest.fail e);
  (match O2_batch.enumerate [ dir; b ] with
  | Ok files -> Alcotest.(check (list string)) "deduplicated" [ a; b ] files
  | Error e -> Alcotest.fail e);
  match O2_batch.enumerate [ Filename.concat dir "missing.cir" ] with
  | Error msg -> check_bool "missing path reported" true (contains msg "missing.cir")
  | Ok _ -> Alcotest.fail "expected Error for a missing path"

(* ---------------- fault isolation ---------------- *)

let test_mixed_corpus () =
  let dir = fresh_dir () in
  ignore (write_file dir "clean.cir" clean_src);
  ignore (write_file dir "racy.cir" racy_src);
  ignore (write_file dir "broken.cir" bad_src);
  ignore (write_file dir "heavy.cir" heavy_src);
  let cfg =
    { O2_batch.default with O2_batch.jobs = 2; max_steps = Some 200 }
  in
  let files =
    match O2_batch.enumerate [ dir ] with Ok f -> f | Error e -> Alcotest.fail e
  in
  let r = O2_batch.run cfg files in
  check_int "all four files have entries" 4 (List.length r.O2_batch.b_entries);
  (* the malformed and over-budget files fail structurally... *)
  (match (find_entry r "broken.cir").O2_batch.e_status with
  | `Error msg -> check_bool "parse error captured" true (contains msg "parse error")
  | _ -> Alcotest.fail "broken.cir should be an error entry");
  (match (find_entry r "heavy.cir").O2_batch.e_status with
  | `Timeout msg -> check_bool "step ceiling named" true (contains msg "ceiling")
  | _ -> Alcotest.fail "heavy.cir should be a timeout entry");
  (* ...while every other file still completes *)
  let clean = find_entry r "clean.cir" and racy = find_entry r "racy.cir" in
  check_bool "clean ok" true (clean.O2_batch.e_status = `Ok);
  check_bool "racy ok" true (racy.O2_batch.e_status = `Ok);
  check_int "clean races" 0 clean.O2_batch.e_races;
  check_int "racy races" 1 racy.O2_batch.e_races;
  check_int "two failures" 2 (O2_batch.n_failed r);
  check_int "exit code 1" 1 (O2_batch.exit_code r);
  check_int "race total over ok entries" 1 (O2_batch.total_races r);
  let open O2_util in
  check_int "batch.files" 4 (Metrics.get r.O2_batch.b_metrics "batch.files");
  check_int "batch.ok" 2 (Metrics.get r.O2_batch.b_metrics "batch.ok");
  check_int "batch.errors" 1 (Metrics.get r.O2_batch.b_metrics "batch.errors");
  check_int "batch.timeouts" 1
    (Metrics.get r.O2_batch.b_metrics "batch.timeouts")

let test_wall_deadline () =
  let dir = fresh_dir () in
  ignore (write_file dir "racy.cir" racy_src);
  let cfg = { O2_batch.default with O2_batch.wall = Some 0.0 } in
  let r = O2_batch.run cfg [ Filename.concat dir "racy.cir" ] in
  match (find_entry r "racy.cir").O2_batch.e_status with
  | `Timeout msg -> check_bool "deadline named" true (contains msg "deadline")
  | _ -> Alcotest.fail "expected a wall-clock timeout entry"

(* a 3000-node copy ring with an allocation at every node commits 9 M
   points-to facts, since copy cycles are not collapsed: the step ceiling
   must end it as a structured timeout, not a crash or a long solve *)
let test_copy_ring_ceiling () =
  let dir = fresh_dir () in
  ignore (write_file dir "ring.cir" (O2_test_helpers.Ring.copy_ring_src 3000));
  let cfg = { O2_batch.default with O2_batch.max_steps = Some 200_000 } in
  let r = O2_batch.run cfg [ Filename.concat dir "ring.cir" ] in
  match (find_entry r "ring.cir").O2_batch.e_status with
  | `Timeout msg ->
      check_bool "step ceiling named" true (contains msg "ceiling")
  | _ -> Alcotest.fail "expected a step-ceiling timeout entry"

(* ---------------- per-file byte-identity with serial analyze ---------------- *)

let serial_report format file =
  let p = O2_frontend.Parser.parse_file file in
  let r = O2.run O2.Config.default p in
  O2.render ~format r

let test_byte_identical_reports () =
  let dir = fresh_dir () in
  ignore (write_file dir "clean.cir" clean_src);
  ignore (write_file dir "racy.cir" racy_src);
  let files =
    match O2_batch.enumerate [ dir ] with Ok f -> f | Error e -> Alcotest.fail e
  in
  List.iter
    (fun format ->
      let cfg = { O2_batch.default with O2_batch.jobs = 2; format } in
      let r = O2_batch.run cfg files in
      List.iter
        (fun (e : O2_batch.entry) ->
          check_string
            ("byte-identical: " ^ Filename.basename e.O2_batch.e_file)
            (serial_report format e.O2_batch.e_file)
            e.O2_batch.e_report)
        r.O2_batch.b_entries)
    [ `Text; `Json ]

(* ---------------- rerun cache ---------------- *)

let test_cache_rerun () =
  let dir = fresh_dir () in
  ignore (write_file dir "clean.cir" clean_src);
  ignore (write_file dir "racy.cir" racy_src);
  let cache = Filename.concat dir "results.cache" in
  let cfg = { O2_batch.default with O2_batch.cache_file = Some cache } in
  let files =
    match O2_batch.enumerate [ dir ] with Ok f -> f | Error e -> Alcotest.fail e
  in
  let r1 = O2_batch.run cfg files in
  check_bool "first run analyzes everything" true
    (List.for_all (fun e -> not e.O2_batch.e_cached) r1.O2_batch.b_entries);
  let r2 = O2_batch.run cfg files in
  check_bool "second run is all cache hits" true
    (List.for_all (fun e -> e.O2_batch.e_cached) r2.O2_batch.b_entries);
  List.iter2
    (fun (a : O2_batch.entry) (b : O2_batch.entry) ->
      check_string "cached report identical" a.O2_batch.e_report
        b.O2_batch.e_report;
      check_int "cached races identical" a.O2_batch.e_races b.O2_batch.e_races)
    r1.O2_batch.b_entries r2.O2_batch.b_entries;
  (* touching one file's content invalidates only that file *)
  ignore (write_file dir "racy.cir" (racy_src ^ "// changed\n"));
  let r3 = O2_batch.run cfg files in
  check_bool "unchanged file still cached" true
    (find_entry r3 "clean.cir").O2_batch.e_cached;
  check_bool "changed file re-analyzed" false
    (find_entry r3 "racy.cir").O2_batch.e_cached;
  (* a different analysis configuration must not reuse the cached result *)
  let cfg' = { cfg with O2_batch.policy = O2_pta.Context.Insensitive } in
  let r4 = O2_batch.run cfg' files in
  check_bool "other policy bypasses the cache" true
    (List.for_all (fun e -> not e.O2_batch.e_cached) r4.O2_batch.b_entries);
  (* a corrupt cache file degrades to an empty cache, never an error *)
  let oc = open_out cache in
  output_string oc "garbage";
  close_out oc;
  let r5 = O2_batch.run cfg files in
  check_bool "corrupt cache ignored" true
    (List.for_all (fun e -> not e.O2_batch.e_cached) r5.O2_batch.b_entries)

(* an old-format cache file (v2 magic, statusless payloads) must be
   invalidated wholesale: no Marshal decode crash, everything re-analyzed,
   and the rerun then hits under the current version *)
let test_cache_version_bump () =
  let dir = fresh_dir () in
  ignore (write_file dir "clean.cir" clean_src);
  ignore (write_file dir "racy.cir" racy_src);
  let cache = Filename.concat dir "results.cache" in
  (* forge a v2 file: same outer (magic, table) tuple, older payload shape
     (no status field); the magic compare rejects it before any payload
     field is inspected, so the shape mismatch never matters *)
  let v2_tbl : (string, int * string * int array) Hashtbl.t =
    Hashtbl.create 4
  in
  Hashtbl.add v2_tbl "deadbeef|origin1|true|true|auto|text"
    (7, "stale report", [| 3; 7 |]);
  let oc = open_out_bin cache in
  Marshal.to_channel oc ("o2-batch-cache/v2", v2_tbl) [];
  close_out oc;
  let cfg = { O2_batch.default with O2_batch.cache_file = Some cache } in
  let files =
    match O2_batch.enumerate [ dir ] with Ok f -> f | Error e -> Alcotest.fail e
  in
  let r1 = O2_batch.run cfg files in
  check_bool "v2 cache invalidated, all recomputed" true
    (List.for_all (fun e -> not e.O2_batch.e_cached) r1.O2_batch.b_entries);
  check_bool "no stale results leaked" true
    (List.for_all
       (fun e -> e.O2_batch.e_status = `Ok && e.O2_batch.e_report <> "stale report")
       r1.O2_batch.b_entries);
  let r2 = O2_batch.run cfg files in
  check_bool "rewritten cache hits under current version" true
    (List.for_all (fun e -> e.O2_batch.e_cached) r2.O2_batch.b_entries)

(* a `Wall/`Steps timeout is budget-relative: rerunning under the same
   budget serves the cached timeout (no point burning the wall clock
   again), but raising the budget must re-analyze — the seed bug was a
   cached timeout being replayed as if terminal regardless of budget *)
let test_cache_timeout_budget () =
  let dir = fresh_dir () in
  ignore (write_file dir "heavy.cir" heavy_src);
  let cache = Filename.concat dir "results.cache" in
  let files = [ Filename.concat dir "heavy.cir" ] in
  let tight =
    {
      O2_batch.default with
      O2_batch.cache_file = Some cache;
      max_steps = Some 200;
    }
  in
  let r1 = O2_batch.run tight files in
  let e1 = find_entry r1 "heavy.cir" in
  (match e1.O2_batch.e_status with
  | `Timeout _ -> ()
  | _ -> Alcotest.fail "tight budget should time out");
  check_bool "first timeout is a live run" false e1.O2_batch.e_cached;
  (* same budget: the timeout itself is served from the cache *)
  let r2 = O2_batch.run tight files in
  let e2 = find_entry r2 "heavy.cir" in
  (match e2.O2_batch.e_status with
  | `Timeout _ -> ()
  | _ -> Alcotest.fail "same budget should replay the cached timeout");
  check_bool "same-budget rerun hits" true e2.O2_batch.e_cached;
  (* larger budget: the stale timeout must NOT be served as terminal *)
  let roomy = { tight with O2_batch.max_steps = None } in
  let r3 = O2_batch.run roomy files in
  let e3 = find_entry r3 "heavy.cir" in
  check_bool "larger budget re-analyzes" false e3.O2_batch.e_cached;
  check_bool "and completes" true (e3.O2_batch.e_status = `Ok);
  (* the terminal result now hits, even under the tight budget's key
     space (a terminal result is budget-independent) *)
  let r4 = O2_batch.run roomy files in
  check_bool "terminal result cached" true
    (find_entry r4 "heavy.cir").O2_batch.e_cached;
  let r5 = O2_batch.run tight files in
  let e5 = find_entry r5 "heavy.cir" in
  check_bool "tight rerun prefers the terminal result" true
    (e5.O2_batch.e_cached && e5.O2_batch.e_status = `Ok)

(* a class list without an Activity: entry auto-detection hands it to the
   lifecycle harness, which finds nothing to drive. The batch entry carries
   the CLI's stderr line for the same file, word for word. *)
let test_no_activity_message () =
  let dir = fresh_dir () in
  let file = write_file dir "noact.cir" "class D { field f; }\n" in
  let r = O2_batch.run O2_batch.default [ file ] in
  let cli =
    match O2_frontend.Parser.parse_file file with
    | exception e -> O2.error_message e
    | _ -> None
  in
  check_bool "CLI names the harness error" true
    (cli = Some "harness error: no class extends Activity");
  match (find_entry r "noact.cir").O2_batch.e_status with
  | `Error msg -> check_bool "same text as the CLI" true (Some msg = cli)
  | _ -> Alcotest.fail "noact.cir should be an error entry"

(* ---------------- jobs>1 determinism ---------------- *)

let entry_key (e : O2_batch.entry) =
  ( e.O2_batch.e_file,
    e.O2_batch.e_digest,
    O2_batch.(
      match e.e_status with
      | `Ok -> "ok"
      | `Error m -> "error:" ^ m
      | `Timeout m -> "timeout:" ^ m),
    e.O2_batch.e_races,
    e.O2_batch.e_cached,
    e.O2_batch.e_report,
    e.O2_batch.e_counters )

let test_jobs_determinism () =
  let dir = fresh_dir () in
  ignore (write_file dir "clean.cir" clean_src);
  ignore (write_file dir "racy.cir" racy_src);
  ignore (write_file dir "broken.cir" bad_src);
  ignore (write_file dir "fig2.cir" racy_src);
  ignore (write_file dir "more.cir" clean_src);
  let files =
    match O2_batch.enumerate [ dir ] with Ok f -> f | Error e -> Alcotest.fail e
  in
  let run jobs = O2_batch.run { O2_batch.default with O2_batch.jobs } files in
  let serial = run 1 and parallel = run 4 in
  check_int "same entry count"
    (List.length serial.O2_batch.b_entries)
    (List.length parallel.O2_batch.b_entries);
  List.iter2
    (fun a b ->
      check_bool "entry identical modulo elapsed" true
        (entry_key a = entry_key b))
    serial.O2_batch.b_entries parallel.O2_batch.b_entries;
  (* the aggregate race totals agree too *)
  check_int "same race total" (O2_batch.total_races serial)
    (O2_batch.total_races parallel)

(* ---------------- rendering ---------------- *)

let test_render () =
  let dir = fresh_dir () in
  ignore (write_file dir "racy.cir" racy_src);
  ignore (write_file dir "broken.cir" bad_src);
  let files =
    match O2_batch.enumerate [ dir ] with Ok f -> f | Error e -> Alcotest.fail e
  in
  let r =
    O2_batch.run { O2_batch.default with O2_batch.format = `Json } files
  in
  let json = O2_batch.render r in
  check_bool "schema tag" true (contains json {|"schema":"o2_batch/v1"|});
  check_bool "status ok present" true (contains json {|"status":"ok"|});
  check_bool "status error present" true (contains json {|"status":"error"|});
  check_bool "summary block" true
    (contains json {|"summary":{"total":2,"ok":1,"errors":1,"timeouts":0|});
  check_bool "aggregate metrics" true (contains json {|"batch.files":2|});
  let rt = O2_batch.run O2_batch.default files in
  let text = O2_batch.render ~per_file:true rt in
  check_bool "per-file header" true (contains text "==> ");
  check_bool "summary line" true (contains text "2 file(s): 1 ok, 1 error(s)")

let () =
  Alcotest.run "batch"
    [
      ("enumerate", [ Alcotest.test_case "corpus listing" `Quick test_enumerate ]);
      ( "fault-isolation",
        [
          Alcotest.test_case "mixed corpus" `Quick test_mixed_corpus;
          Alcotest.test_case "wall deadline" `Quick test_wall_deadline;
          Alcotest.test_case "copy ring under a step ceiling" `Quick
            test_copy_ring_ceiling;
          Alcotest.test_case "no activity class" `Quick
            test_no_activity_message;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "matches serial analyze" `Quick
            test_byte_identical_reports;
        ] );
      ( "cache",
        [
          Alcotest.test_case "rerun hits" `Quick test_cache_rerun;
          Alcotest.test_case "version bump invalidates" `Quick
            test_cache_version_bump;
          Alcotest.test_case "timeouts keyed by budget" `Quick
            test_cache_timeout_budget;
        ] );
      ( "determinism",
        [ Alcotest.test_case "jobs>1 aggregate" `Quick test_jobs_determinism ] );
      ("render", [ Alcotest.test_case "json + text" `Quick test_render ]);
    ]
