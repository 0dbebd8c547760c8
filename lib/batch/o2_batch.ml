open O2_util

type status = [ `Ok | `Error of string | `Timeout of string ]

type entry = {
  e_file : string;
  e_digest : string;
  e_status : status;
  e_races : int;
  e_elapsed : float;
  e_cached : bool;
  e_report : string;
  e_counters : (string * int) list;
}

type report = {
  b_policy : O2_pta.Context.policy;
  b_jobs : int;
  b_format : [ `Text | `Json ];
  b_entries : entry list;
  b_elapsed : float;
  b_metrics : Metrics.t;
}

type config = {
  policy : O2_pta.Context.policy;
  serial_events : bool;
  lock_region : bool;
  entry : O2_frontend.Parser.entry;
  jobs : int;
  format : [ `Text | `Json ];
  wall : float option;
  max_steps : int option;
  cache_file : string option;
}

let default =
  {
    policy = O2_pta.Context.Korigin 1;
    serial_events = true;
    lock_region = true;
    entry = O2_frontend.Parser.Auto;
    jobs = 1;
    format = `Text;
    wall = None;
    max_steps = None;
    cache_file = None;
  }

(* ---------------- corpus enumeration ---------------- *)

let enumerate paths =
  let add_path acc path =
    if not (Sys.file_exists path) then
      failwith (Printf.sprintf "%s: no such file or directory" path)
    else if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".cir")
      |> List.map (fun f -> Filename.concat path f)
      |> List.rev_append acc
    else path :: acc
  in
  match List.fold_left add_path [] paths with
  | files -> Ok (List.sort_uniq compare files)
  | exception Failure msg -> Error msg
  | exception Sys_error msg -> Error msg

(* ---------------- on-disk result cache ---------------- *)

(* Marshal-based cache: {digest+config key -> finished entry payload}. A
   missing, corrupt or version-mismatched file degrades to an empty cache
   (never an error: the cache is purely an optimization). The magic string
   is the FIRST component of the marshalled tuple: a version mismatch is
   detected before any payload field is ever inspected, so old-format
   entries can never be misread as the current shape. *)

let cache_magic = "o2-batch-cache/v3"

(* the aggregate's "key counters": the Table 6 shape of each file plus the
   detection effort, enough to spot an outlier without rerunning --stats *)
let key_counter_names =
  [
    "pta.pointers"; "pta.objects"; "pta.edges"; "pta.origins";
    "pta.worklist_iters"; "shb.nodes"; "shb.edges"; "race.pairs_checked";
    "o2.races"; "o2.origins";
  ]

(* v3 payload: counters stored as a dense int array in [key_counter_names]
   order (the flat-IR storage discipline — no string keys past the
   boundary; v1 stored an assoc list) plus an explicit status. v2 stored
   only terminal `Ok results, but also stored nothing else — a `Wall or
   `Steps exhaustion was silently re-analyzed every run, and worse, an
   early buggy revision could serve one as terminal. v3 makes the
   distinction structural: timeouts are cached under a budget-qualified
   key (below), so a rerun with the same budget is served instantly while
   any budget change misses and re-analyzes. *)
type cached = {
  c_status : [ `Ok | `Timeout of string ];
  c_races : int;
  c_report : string;
  c_counters : int array;
}

type cache_tbl = (string, cached) Hashtbl.t

let cache_key cfg digest =
  Printf.sprintf "%s|%s|%b|%b|%s|%s" digest
    (O2_pta.Context.policy_name cfg.policy)
    cfg.serial_events cfg.lock_region
    (O2_frontend.Parser.entry_name cfg.entry)
    (match cfg.format with `Text -> "text" | `Json -> "json")

(* a timeout is a property of (file, config, budget), not of the file:
   the budget signature keys it so `--deadline 60` after a `--deadline 5`
   timeout re-analyzes instead of replaying the stale exhaustion *)
let timeout_key cfg digest =
  Printf.sprintf "%s|timeout|w=%s|s=%s" (cache_key cfg digest)
    (match cfg.wall with None -> "-" | Some w -> Printf.sprintf "%g" w)
    (match cfg.max_steps with None -> "-" | Some n -> string_of_int n)

let load_cache = function
  | None -> (Hashtbl.create 0 : cache_tbl)
  | Some path -> (
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let magic, (tbl : cache_tbl) = Marshal.from_channel ic in
            if String.equal magic cache_magic then tbl else Hashtbl.create 0)
      with _ -> Hashtbl.create 0)

let save_cache path (tbl : cache_tbl) =
  try
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> Marshal.to_channel oc (cache_magic, tbl) []);
    Sys.rename tmp path
  with Sys_error _ -> ()

(* ---------------- per-file analysis under a fault boundary ---------------- *)

let digest_of file = try Digest.to_hex (Digest.file file) with _ -> ""

let analyze_one cfg (cache : cache_tbl) file =
  let t0 = Unix.gettimeofday () in
  let digest = digest_of file in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let fail status =
    {
      e_file = file;
      e_digest = digest;
      e_status = status;
      e_races = 0;
      e_elapsed = elapsed ();
      e_cached = false;
      e_report = "";
      e_counters = [];
    }
  in
  let hit =
    if digest = "" then None
    else
      match Hashtbl.find_opt cache (cache_key cfg digest) with
      | Some ({ c_status = `Ok; _ } as c)
        when Array.length c.c_counters = List.length key_counter_names ->
          Some c
      | _ -> (
          (* no terminal result: a timeout under this exact budget is
             still worth serving (rerunning would just burn the same
             wall clock again) *)
          match Hashtbl.find_opt cache (timeout_key cfg digest) with
          | Some ({ c_status = `Timeout _; _ } as c) -> Some c
          | _ -> None)
  in
  match hit with
  | Some c ->
      {
        e_file = file;
        e_digest = digest;
        e_status = (c.c_status :> status);
        e_races = c.c_races;
        e_elapsed = 0.0;
        e_cached = true;
        e_report = c.c_report;
        e_counters =
          (match c.c_status with
          | `Ok ->
              List.mapi (fun i k -> (k, c.c_counters.(i))) key_counter_names
          | `Timeout _ -> []);
      }
  | None -> (
      try
        let p = O2_frontend.Parser.parse_file ~entry:cfg.entry file in
        let budget =
          match (cfg.wall, cfg.max_steps) with
          | None, None -> None
          | wall, max_steps -> Some (Budget.make ?wall ?max_steps ())
        in
        let m = Metrics.create () in
        let ocfg =
          {
            O2.Config.policy = cfg.policy;
            serial_events = cfg.serial_events;
            lock_region = cfg.lock_region;
            metrics = Some m;
            budget;
          }
        in
        let r = O2.run ocfg p in
        (* render without the metrics sink, exactly like a plain
           `o2 analyze` (no --stats) of the same file *)
        let report_str =
          O2_race.Report.render ~format:cfg.format
            {
              O2_race.Report.solver = r.O2.solver;
              graph = r.O2.graph;
              report = r.O2.report;
            }
        in
        {
          e_file = file;
          e_digest = digest;
          e_status = `Ok;
          e_races = O2.n_races r;
          e_elapsed = elapsed ();
          e_cached = false;
          e_report = report_str;
          e_counters =
            List.map (fun k -> (k, Metrics.get m k)) key_counter_names;
        }
      with
      | Budget.Exhausted reason -> fail (`Timeout (Budget.reason_to_string reason))
      | Invalid_argument msg -> fail (`Error msg)
      | exn -> (
          match O2.error_message exn with
          | Some msg -> fail (`Error msg)
          | None ->
              fail (`Error ("uncaught exception: " ^ Printexc.to_string exn))))

(* ---------------- the corpus run ---------------- *)

let run cfg files =
  let t0 = Unix.gettimeofday () in
  let bm = Metrics.create () in
  let cache = load_cache cfg.cache_file in
  let files_arr = Array.of_list files in
  let n = Array.length files_arr in
  (* the cache table is only read during the fan-out (writes happen after
     it returns) *)
  let entries =
    Metrics.span bm "batch" (fun () ->
        Fanout.init ~jobs:cfg.jobs n (fun i ->
            analyze_one cfg cache files_arr.(i)))
    |> Array.to_list
    |> List.sort (fun a b -> compare a.e_file b.e_file)
  in
  (* aggregate counters; per-file metrics were kept out of the entries to
     preserve report byte-identity, so recompute the batch.* roll-up here *)
  Metrics.set bm "batch.files" n;
  List.iter
    (fun e ->
      (match e.e_status with
      | `Ok ->
          Metrics.incr bm "batch.ok";
          Metrics.add bm "batch.races" e.e_races
      | `Error _ -> Metrics.incr bm "batch.errors"
      | `Timeout _ -> Metrics.incr bm "batch.timeouts");
      if e.e_cached then Metrics.incr bm "batch.cached";
      List.iter (fun (k, v) -> Metrics.add bm ("corpus." ^ k) v) e.e_counters)
    entries;
  (match cfg.cache_file with
  | None -> ()
  | Some path ->
      List.iter
        (fun e ->
          match e.e_status with
          | `Ok when e.e_digest <> "" ->
              Hashtbl.replace cache
                (cache_key cfg e.e_digest)
                {
                  c_status = `Ok;
                  c_races = e.e_races;
                  c_report = e.e_report;
                  c_counters = Array.of_list (List.map snd e.e_counters);
                }
          | `Timeout msg when e.e_digest <> "" ->
              Hashtbl.replace cache
                (timeout_key cfg e.e_digest)
                {
                  c_status = `Timeout msg;
                  c_races = 0;
                  c_report = "";
                  c_counters = [||];
                }
          | _ -> ())
        entries;
      save_cache path cache);
  {
    b_policy = cfg.policy;
    b_jobs = Fanout.workers ~jobs:cfg.jobs n;
    b_format = cfg.format;
    b_entries = entries;
    b_elapsed = Unix.gettimeofday () -. t0;
    b_metrics = bm;
  }

(* ---------------- summaries ---------------- *)

let n_failed r =
  List.length
    (List.filter
       (fun e -> match e.e_status with `Ok -> false | _ -> true)
       r.b_entries)

let total_races r =
  List.fold_left
    (fun acc e -> match e.e_status with `Ok -> acc + e.e_races | _ -> acc)
    0 r.b_entries

let exit_code r = if n_failed r = 0 then 0 else 1

(* ---------------- rendering ---------------- *)

let status_name = function
  | `Ok -> "ok"
  | `Error _ -> "error"
  | `Timeout _ -> "timeout"

let summary_counts r =
  let ok, errors, timeouts, cached =
    List.fold_left
      (fun (ok, er, tm, ca) e ->
        let ca = if e.e_cached then ca + 1 else ca in
        match e.e_status with
        | `Ok -> (ok + 1, er, tm, ca)
        | `Error _ -> (ok, er + 1, tm, ca)
        | `Timeout _ -> (ok, er, tm + 1, ca))
      (0, 0, 0, 0) r.b_entries
  in
  (List.length r.b_entries, ok, errors, timeouts, cached)

let entry_json e =
  let counters =
    e.e_counters
    |> List.map (fun (k, v) -> Printf.sprintf {|"%s":%d|} (Metrics.json_escape k) v)
    |> String.concat ","
  in
  let detail =
    match e.e_status with
    | `Ok -> ""
    | `Error msg -> Printf.sprintf {|,"error":"%s"|} (Metrics.json_escape msg)
    | `Timeout msg -> Printf.sprintf {|,"error":"%s"|} (Metrics.json_escape msg)
  in
  Printf.sprintf
    {|{"file":"%s","digest":"%s","status":"%s","races":%d,"elapsed":%.6f,"cached":%b,"report":"%s","counters":{%s}%s}|}
    (Metrics.json_escape e.e_file) (Metrics.json_escape e.e_digest)
    (status_name e.e_status)
    e.e_races e.e_elapsed e.e_cached (Metrics.json_escape e.e_report) counters detail

let render_json r =
  let total, ok, errors, timeouts, cached = summary_counts r in
  Printf.sprintf
    {|{"schema":"o2_batch/v1","policy":"%s","jobs":%d,"elapsed":%.6f,"files":[%s],"summary":{"total":%d,"ok":%d,"errors":%d,"timeouts":%d,"cached":%d,"races":%d},"metrics":%s}|}
    (Metrics.json_escape (O2_pta.Context.policy_name r.b_policy))
    r.b_jobs r.b_elapsed
    (String.concat "," (List.map entry_json r.b_entries))
    total ok errors timeouts cached (total_races r)
    (Metrics.to_json r.b_metrics)

let render_text ~per_file r =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if per_file then
    List.iter
      (fun e ->
        if e.e_status = `Ok then
          pf "==> %s <==\n%s\n\n" e.e_file e.e_report)
      r.b_entries;
  let width =
    List.fold_left (fun w e -> max w (String.length e.e_file)) 4 r.b_entries
  in
  pf "%-*s %-8s %6s %9s  %s\n" width "file" "status" "races" "elapsed"
    "detail";
  List.iter
    (fun e ->
      let detail =
        match e.e_status with
        | `Ok -> if e.e_cached then "(cached)" else ""
        | `Error msg | `Timeout msg -> msg
      in
      pf "%-*s %-8s %6d %8.3fs  %s\n" width e.e_file
        (status_name e.e_status)
        e.e_races e.e_elapsed detail)
    r.b_entries;
  let total, ok, errors, timeouts, cached = summary_counts r in
  pf
    "%d file(s): %d ok, %d error(s), %d timeout(s), %d cached; %d race(s) \
     total; policy %s, jobs %d, %.3fs\n"
    total ok errors timeouts cached (total_races r)
    (O2_pta.Context.policy_name r.b_policy)
    r.b_jobs r.b_elapsed;
  Buffer.contents buf

let render ?(per_file = false) r =
  match r.b_format with
  | `Json -> render_json r
  | `Text -> render_text ~per_file r
