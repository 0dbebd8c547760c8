(* Timing-free exact counts for the golden diffs in test/golden/dune.

     golden_counters workloads    the six bench workloads, then a fuzz slice
     golden_counters batch DIR    batch-mode status and races per .cir file

   [workloads] runs the default instrumented O2 pipeline on each Synth
   workload and prints its race count, OSA shared-access count,
   over-synchronization findings, escaped accesses (the escape baseline
   on the same solve) and every counter and gauge, one
   "<workload> <key> <value>" line each, sorted by key. A last line totals a fixed fuzz slice (seed 7, 12 programs) with
   no wall budget, so every line is machine-independent. [batch] prints
   "<file> <status> <races>" per file and a "total N" line, the format of
   test/golden/batch_corpus.txt. *)

let pf = Printf.printf

let workload name =
  let p = O2_workloads.Synth.program (O2_workloads.Synth.find name) in
  let r = O2.run (O2.Config.with_metrics O2.Config.default) p in
  let m = Option.get r.O2.config.O2.Config.metrics in
  let int k v = (k, string_of_int v) in
  [
    int "races" (O2.n_races r);
    int "osa.n_shared_accesses" (O2_osa.Osa.n_shared_accesses r.O2.osa);
    int "oversync.findings"
      (O2_race.Oversync.n_findings (O2_race.Oversync.run r.O2.solver r.O2.osa));
    int "escape.escaped_accesses"
      (O2_escape.Escape.n_escaped_accesses (O2_escape.Escape.run r.O2.solver));
  ]
  @ List.map (fun (k, v) -> int k v) (O2_util.Metrics.counters m)
  @ List.map
      (fun (k, cur, peak) -> (k, Printf.sprintf "%d peak %d" cur peak))
      (O2_util.Metrics.gauges m)
  |> List.sort compare
  |> List.iter (fun (k, v) -> pf "%s %s %s\n" name k v)

let fuzz_sweep () =
  let gates = { O2_fuzz.Fuzz.default_gates with O2_fuzz.Fuzz.g_wall = None } in
  let r = O2_fuzz.Fuzz.sweep ~gates ~seed:7 ~count:12 () in
  let ok, timeouts, divergent = O2_fuzz.Fuzz.counts r in
  let races =
    List.fold_left
      (fun a (e : O2_fuzz.Fuzz.entry) -> a + e.O2_fuzz.Fuzz.f_races)
      0 r.O2_fuzz.Fuzz.r_entries
  in
  pf "fuzz:sweep seed 7 count %d ok %d timeouts %d divergent %d races %d\n"
    r.O2_fuzz.Fuzz.r_count ok timeouts divergent races

let batch dir =
  let files =
    match O2_batch.enumerate [ dir ] with
    | Ok files -> files
    | Error msg -> failwith msg
  in
  let r = O2_batch.run O2_batch.default files in
  List.iter
    (fun (e : O2_batch.entry) ->
      pf "%s %s %d\n"
        (Filename.basename e.O2_batch.e_file)
        (match e.O2_batch.e_status with
        | `Ok -> "ok"
        | `Error _ -> "error"
        | `Timeout _ -> "timeout")
        e.O2_batch.e_races)
    r.O2_batch.b_entries;
  pf "total %d\n" (O2_batch.total_races r)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "workloads" ] ->
      List.iter workload
        [ "lusearch"; "memcached"; "zookeeper"; "redis"; "cyclic"; "chainstorm" ];
      fuzz_sweep ()
  | [ "batch"; dir ] -> batch dir
  | _ ->
      prerr_endline "usage: golden_counters (workloads | batch DIR)";
      exit 2
