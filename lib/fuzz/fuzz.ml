open O2_workloads

type status =
  [ `Ok | `Timeout of string | `Divergent of Differential.divergence list ]

type entry = {
  f_index : int;
  f_spec : Synth.spec;
  f_status : status;
  f_races : int;
  f_stmts : int;
  f_origins : int;
  f_elapsed : float;
}

type report = {
  r_seed : int;
  r_count : int;
  r_jobs : int;
  r_entries : entry list;
  r_elapsed : float;
}

type gates = {
  g_policy : O2_pta.Context.policy option;
  g_wall : float option;
  g_max_steps : int option;
  g_naive_max_stmts : int;
  g_dynamic_max_stmts : int;
}

let default_gates =
  {
    g_policy = None;
    g_wall = Some 60.0;
    g_max_steps = Some 20_000_000;
    g_naive_max_stmts = 1500;
    g_dynamic_max_stmts = 400;
  }

let check_spec gates spec =
  let budget =
    match (gates.g_wall, gates.g_max_steps) with
    | None, None -> None
    | wall, max_steps -> Some (O2_util.Budget.make ?wall ?max_steps ())
  in
  let p = Synth.program spec in
  Differential.check ?policy:gates.g_policy ?budget
    ~naive_max_stmts:gates.g_naive_max_stmts
    ~dynamic_max_stmts:gates.g_dynamic_max_stmts p

(* one generated program under the batch-style fault boundary: budget
   exhaustion is a timeout entry, any other escape is a divergence of
   class "crash" (the harness already downgrades per-stage crashes; this
   catches generation itself) *)
let run_one gates ~seed ~index =
  let t0 = Unix.gettimeofday () in
  let spec = Synth.spec_of_seed ~seed ~index in
  let finish status races stmts origins =
    {
      f_index = index;
      f_spec = spec;
      f_status = status;
      f_races = races;
      f_stmts = stmts;
      f_origins = origins;
      f_elapsed = Unix.gettimeofday () -. t0;
    }
  in
  match check_spec gates spec with
  | o ->
      let status =
        if o.Differential.o_divergences = [] then `Ok
        else `Divergent o.Differential.o_divergences
      in
      finish status o.Differential.o_races o.Differential.o_stmts
        o.Differential.o_origins
  | exception O2_util.Budget.Exhausted reason ->
      finish (`Timeout (O2_util.Budget.reason_to_string reason)) 0 0 0
  | exception e ->
      finish
        (`Divergent
          [
            {
              Differential.dv_class = "crash";
              dv_detail = "generation/check: " ^ Printexc.to_string e;
            };
          ])
        0 0 0

let sweep ?(jobs = 1) ?(gates = default_gates) ~seed ~count () =
  let t0 = Unix.gettimeofday () in
  let entries =
    O2_util.Fanout.init ~jobs count (fun i -> run_one gates ~seed ~index:i)
  in
  {
    r_seed = seed;
    r_count = count;
    r_jobs = O2_util.Fanout.workers ~jobs count;
    r_entries = Array.to_list entries;
    r_elapsed = Unix.gettimeofday () -. t0;
  }

(* ---------------- shrinking ---------------- *)

(* Greedy spec-level shrinking: walk every knob toward its floor (bools
   off, ints through floor / halfway / decrement) and keep any reduction
   under which the program still diverges in one of the original
   agreement classes; repeat to a fixpoint. Spec-level shrinking keeps
   every attempt a well-formed program by construction — no syntactic
   delta debugging needed. *)

let divergence_classes = function
  | `Divergent ds ->
      List.map (fun d -> d.Differential.dv_class) ds |> List.sort_uniq compare
  | _ -> []

let still_fails gates ~classes spec =
  match check_spec gates spec with
  | o ->
      List.exists
        (fun d -> List.mem d.Differential.dv_class classes)
        o.Differential.o_divergences
  | exception O2_util.Budget.Exhausted _ -> false
  | exception _ -> List.mem "crash" classes

let int_knobs :
    (string * (Synth.spec -> int) * (Synth.spec -> int -> Synth.spec) * int)
    list =
  Synth.
    [
      ("tc", (fun s -> s.s_thread_classes),
       (fun s v -> { s with s_thread_classes = v }), 0);
      ("inst", (fun s -> s.s_instances),
       (fun s v -> { s with s_instances = v }), 1);
      ("ev", (fun s -> s.s_event_classes),
       (fun s v -> { s with s_event_classes = v }), 0);
      ("depth", (fun s -> s.s_helper_depth),
       (fun s v -> { s with s_helper_depth = v }), 0);
      ("fan", (fun s -> s.s_helper_fanout),
       (fun s v -> { s with s_helper_fanout = v }), 1);
      ("allo", (fun s -> s.s_helper_alloc_sites),
       (fun s v -> { s with s_helper_alloc_sites = v }), 1);
      ("ld", (fun s -> s.s_locals_direct),
       (fun s v -> { s with s_locals_direct = v }), 0);
      ("lh", (fun s -> s.s_locals_helper),
       (fun s v -> { s with s_locals_helper = v }), 0);
      ("locked", (fun s -> s.s_shared_locked),
       (fun s v -> { s with s_shared_locked = v }), 0);
      ("racy", (fun s -> s.s_racy), (fun s v -> { s with s_racy = v }), 0);
      ("priv", (fun s -> s.s_priv), (fun s v -> { s with s_priv = v }), 0);
      ("cyclic", (fun s -> s.s_cyclic),
       (fun s v -> { s with s_cyclic = v }), 0);
      ("chain", (fun s -> s.s_chain), (fun s v -> { s with s_chain = v }), 0);
      ("storm", (fun s -> s.s_storm), (fun s v -> { s with s_storm = v }), 1);
      ("lockd", (fun s -> s.s_lock_depth),
       (fun s v -> { s with s_lock_depth = v }), 1);
      ("arrays", (fun s -> s.s_arrays),
       (fun s v -> { s with s_arrays = v }), 0);
      ("statics", (fun s -> s.s_statics),
       (fun s v -> { s with s_statics = v }), 0);
    ]

let bool_knobs : (string * (Synth.spec -> bool) * (Synth.spec -> Synth.spec)) list
    =
  Synth.
    [
      ("pool", (fun s -> s.s_pool), fun s -> { s with s_pool = false });
      ("nested", (fun s -> s.s_nested), fun s -> { s with s_nested = false });
      ("wrapper", (fun s -> s.s_wrapper), fun s -> { s with s_wrapper = false });
      ("selfpost", (fun s -> s.s_self_post),
       fun s -> { s with s_self_post = false });
      ("empty", (fun s -> s.s_empty), fun s -> { s with s_empty = false });
      ("unreach", (fun s -> s.s_unreachable),
       fun s -> { s with s_unreachable = false });
      ("join", (fun s -> s.s_join), fun s -> { s with s_join = false });
      ("signal", (fun s -> s.s_signal), fun s -> { s with s_signal = false });
      ("branch", (fun s -> s.s_branch), fun s -> { s with s_branch = false });
    ]

let valid s = match Synth.validate s with () -> true | exception _ -> false

let shrink ?(gates = default_gates) ?(max_checks = 200) ~classes spec =
  let checks = ref 0 in
  let try_spec s =
    incr checks;
    !checks <= max_checks && valid s && still_fails gates ~classes s
  in
  let rec fix spec =
    let shrunk = ref None in
    let attempt s = if !shrunk = None && try_spec s then shrunk := Some s in
    List.iter
      (fun (_, get, set, floor) ->
        let v = get spec in
        if v > floor && !shrunk = None then begin
          attempt (set spec floor);
          let mid = floor + ((v - floor) / 2) in
          if mid > floor && mid < v then attempt (set spec mid);
          attempt (set spec (v - 1))
        end)
      int_knobs;
    List.iter
      (fun (_, get, off) ->
        if get spec && !shrunk = None then attempt (off spec))
      bool_knobs;
    match !shrunk with
    | Some s when !checks < max_checks -> fix s
    | Some s -> s
    | None -> spec
  in
  fix spec

(* ---------------- reproducers ---------------- *)

let write_reproducer ~dir ~seed entry =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let classes = divergence_classes entry.f_status in
  let name =
    Printf.sprintf "seed%d-i%d-%s.cir" seed entry.f_index
      (match classes with [] -> "unknown" | c -> String.concat "-" c)
  in
  let path = Filename.concat dir name in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "// o2 fuzz reproducer: seed %d, index %d\n" seed
       entry.f_index);
  Buffer.add_string buf
    (Format.asprintf "// spec: %a\n" Synth.pp_spec entry.f_spec);
  (match entry.f_status with
  | `Divergent ds ->
      List.iter
        (fun d ->
          Buffer.add_string buf
            (Format.asprintf "// divergence %a\n" Differential.pp_divergence d))
        ds
  | _ -> ());
  Buffer.add_string buf (O2_ir.Pp.program_to_string (Synth.program entry.f_spec));
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Buffer.contents buf));
  path

(* ---------------- summaries and rendering ---------------- *)

let counts r =
  List.fold_left
    (fun (ok, to_, dv) e ->
      match e.f_status with
      | `Ok -> (ok + 1, to_, dv)
      | `Timeout _ -> (ok, to_ + 1, dv)
      | `Divergent _ -> (ok, to_, dv + 1))
    (0, 0, 0) r.r_entries

let divergent r =
  List.filter
    (fun e -> match e.f_status with `Divergent _ -> true | _ -> false)
    r.r_entries

let exit_code r =
  let _, _, dv = counts r in
  if dv = 0 then 0 else 1

let status_name = function
  | `Ok -> "ok"
  | `Timeout _ -> "timeout"
  | `Divergent _ -> "divergent"

let render_json r =
  let entry_json e =
    let detail =
      match e.f_status with
      | `Ok -> ""
      | `Timeout msg -> Printf.sprintf {|,"error":"%s"|} (O2_util.Metrics.json_escape msg)
      | `Divergent ds ->
          Printf.sprintf {|,"divergences":[%s]|}
            (String.concat ","
               (List.map
                  (fun d ->
                    Printf.sprintf {|{"class":"%s","detail":"%s"}|}
                      (O2_util.Metrics.json_escape d.Differential.dv_class)
                      (O2_util.Metrics.json_escape d.Differential.dv_detail))
                  ds))
    in
    Printf.sprintf
      {|{"index":%d,"spec":"%s","status":"%s","races":%d,"stmts":%d,"origins":%d,"elapsed":%.6f%s}|}
      e.f_index
      (O2_util.Metrics.json_escape (Format.asprintf "%a" Synth.pp_spec e.f_spec))
      (status_name e.f_status) e.f_races e.f_stmts e.f_origins e.f_elapsed
      detail
  in
  let ok, to_, dv = counts r in
  Printf.sprintf
    {|{"schema":"o2_fuzz/v1","seed":%d,"count":%d,"jobs":%d,"elapsed":%.6f,"programs":[%s],"summary":{"ok":%d,"timeouts":%d,"divergent":%d}}|}
    r.r_seed r.r_count r.r_jobs r.r_elapsed
    (String.concat "," (List.map entry_json r.r_entries))
    ok to_ dv

let render_text r =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun e ->
      match e.f_status with
      | `Ok -> ()
      | `Timeout msg -> pf "i%d timeout: %s\n" e.f_index msg
      | `Divergent ds ->
          List.iter
            (fun d ->
              pf "i%d DIVERGENCE %a\n" e.f_index
                (fun () d -> Format.asprintf "%a" Differential.pp_divergence d)
                d)
            ds)
    r.r_entries;
  let ok, to_, dv = counts r in
  let stmts = List.fold_left (fun a e -> a + e.f_stmts) 0 r.r_entries in
  let races = List.fold_left (fun a e -> a + e.f_races) 0 r.r_entries in
  let origins = List.fold_left (fun a e -> a + e.f_origins) 0 r.r_entries in
  pf
    "%d program(s): %d ok, %d timeout(s), %d divergent; %d stmts, %d \
     origins, %d race(s); seed %d, jobs %d, %.3fs\n"
    r.r_count ok to_ dv stmts origins races r.r_seed r.r_jobs r.r_elapsed;
  Buffer.contents buf

let render ?(format = `Text) r =
  match format with `Json -> render_json r | `Text -> render_text r
