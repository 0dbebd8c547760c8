(* End-to-end benchmark of the O2 pipeline: CIR source text -> report.

     o2bench --workload W --seed N --seconds S --trace 0|1

   Run from the repository root: the corpus reads examples/programs and
   test/golden, and traces go to perfbench/out.

   One analysis is one pass of the six public entry points, each timed
   from here, outside the library:

     frontend  O2_frontend.Parser.parse_program
     pta       O2_pta.Solver.analyze          (lowers to Flat inside)
     shb       O2_shb.Graph.build
     race      O2_race.Detect.run ~jobs
     osa       O2_osa.Osa.run
     report    O2_race.Report.render

   Workloads (generated from --seed, run serially in this process):

     corpus        every named Synth spec, every Table-10 model and its
                   fixed variant, the example programs, and the golden
                   files the CLI tests diff; one analysis per program
     bigapp        the zookeeper spec with thread and event classes x2
     eventstorm    the chainstorm spec with thread and event classes x4
     bigapp-jobs2  bigapp at jobs=2 (sharded solve, detection fan-out)

   The seed sets the corpus order and jitters two shape-preserving size
   knobs of the scaled specs (direct locals per entry, racy fields) by at
   most one each way. Every render is checked against a reference
   that does not come from the timed engine: the Table-10 race counts,
   test/golden/batch_corpus.txt, the golden .analyze.expected files, the
   races each synthetic spec seeds, the serial render (jobs=2), and the
   first render of the same program.

   --trace 0 prints the end-to-end metrics; --trace 1 alternates traced
   and untraced rounds, prints the per-layer metrics and writes a Chrome
   trace-event file (open it in Perfetto) under perfbench/out. Human-readable
   lines go to stderr; the last line of stdout is one JSON object. *)

open O2_pta
module Parser = O2_frontend.Parser
module Graph = O2_shb.Graph
module Detect = O2_race.Detect
module Report = O2_race.Report
module Metrics = O2_util.Metrics
module Synth = O2_workloads.Synth
module Models = O2_workloads.Models

let now = Unix.gettimeofday
let eprintf = Printf.eprintf

(* ------------------------------------------------------------------ *)
(* workload items                                                       *)

type check =
  | Races of int  (** exact deduplicated race count *)
  | Golden of string  (** the CLI's stdout, byte for byte *)
  | Seeded of Synth.spec  (** every race the generator seeds is reported *)
  | Same_as of Digest.t  (** digest of a reference render *)

type item = {
  name : string;
  file : string;  (** file name the report cites *)
  src : string;  (** CIR source text *)
  policy : Context.policy;
  format : [ `Text | `Json ];
  mutable checks : check list;
  mutable digest : Digest.t option;  (** first render; repeats must match *)
}

let item ?(policy = Context.Korigin 1) ?(format = `Text) ~name ~file checks src
    =
  { name; file; src; policy; format; checks; digest = None }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let synth_item (s : Synth.spec) =
  item ~name:("synth:" ^ s.s_name) ~file:(s.s_name ^ ".cir") [ Seeded s ]
    (O2_ir.Pp.program_to_string (Synth.program s))

let model_items (m : Models.model) =
  let mk name n p =
    item ~name:("model:" ^ name) ~file:(name ^ ".cir") [ Races n ]
      (O2_ir.Pp.program_to_string (p ()))
  in
  [ mk m.name m.expected_races m.program; mk (m.name ^ "_fixed") 0 m.fixed ]

(* "linux.cir ok 6" lines; the "total" line is not a file *)
let batch_counts () =
  read_file "test/golden/batch_corpus.txt"
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ file; "ok"; n ] -> Some (file, int_of_string n)
         | _ -> None)

let rec find_sub s key i =
  let k = String.length key in
  if i + k > String.length s then None
  else if String.sub s i k = key then Some i
  else find_sub s key (i + 1)

(* The golden rules of test/golden/dune that capture an [analyze] run:
   [(with-stdout-to S.analyze.out (run %{exe:...} analyze %{dep:F.cir}
   ARGS))] -> (S, F.cir, ARGS). *)
let golden_rules () =
  let text = read_file "test/golden/dune" in
  let words s = String.split_on_char ' ' s |> List.filter (( <> ) "") in
  let rec scan from acc =
    match find_sub text "(with-stdout-to" from with
    | None -> List.rev acc
    | Some i ->
        let close = String.index_from text i ')' in
        let acc =
          match
            String.sub text (i + 15) (close - i - 15)
            |> String.map (function '\n' | '(' -> ' ' | c -> c)
            |> words
          with
          | out :: "run" :: _ :: "analyze" :: dep :: args
            when Filename.check_suffix out ".analyze.out" ->
              let file =
                String.sub dep 6 (String.length dep - 7) (* %{dep:F} *)
              in
              (Filename.chop_suffix out ".analyze.out", file, args) :: acc
          | _ -> acc
        in
        scan close acc
  in
  scan 0 []

let golden_items examples =
  List.filter_map
    (fun (stem, file, args) ->
      let expected = "test/golden/" ^ stem ^ ".analyze.expected" in
      if not (Sys.file_exists expected) then None
      else
        let rec opts policy format = function
          | [] -> (policy, format)
          | "--json" :: rest -> opts policy `Json rest
          | ("--policy" | "-p") :: p :: rest -> (
              match Context.policy_of_string p with
              | Ok p -> opts p format rest
              | Error e -> failwith e)
          | a :: _ -> failwith ("unsupported golden analyze flag " ^ a)
        in
        let policy, format = opts (Context.Korigin 1) `Text args in
        let src = read_file ("test/golden/" ^ file) in
        let golden = Golden (read_file expected) in
        (* a default-option golden of an example file checks that item *)
        match
          List.find_opt
            (fun it ->
              it.file = file && it.src = src && it.policy = policy
              && it.format = format)
            examples
        with
        | Some it ->
            it.checks <- golden :: it.checks;
            None
        | None ->
            Some
              (item ~policy ~format ~name:("golden:" ^ stem) ~file [ golden ]
                 src))
    (golden_rules ())

let example_items () =
  let dir = "examples/programs" in
  let counts = batch_counts () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cir")
  |> List.sort compare
  |> List.map (fun file ->
         match List.assoc_opt file counts with
         | None -> failwith (file ^ " has no line in batch_corpus.txt")
         | Some n ->
             item ~name:("example:" ^ file) ~file [ Races n ]
               (read_file (Filename.concat dir file)))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let corpus ~rng =
  let specs =
    Synth.dacapo @ Synth.android @ Synth.distributed @ Synth.capps
    @ Synth.stress
  in
  let examples = example_items () in
  let goldens = golden_items examples in
  List.map synth_item specs
  @ List.concat_map model_items Models.all
  @ examples @ goldens
  |> Array.of_list |> shuffle rng

(* a scaled spec: thread and event classes multiplied by [k]; the seed
   moves the direct locals per entry and the racy fields by -1..+1 each,
   which changes sizes but not the program's shape. The locked fields
   stay: one more on eventstorm, whose nested out-of-order locks make
   each one costly, is ~9% more work, more than the timing bounds. *)
let scaled ~rng ~name ~base ~k =
  let s = Synth.find base in
  let j () = Random.State.int rng 3 - 1 in
  let s =
    {
      s with
      s_name = name;
      s_thread_classes = k * s.s_thread_classes;
      s_event_classes = k * s.s_event_classes;
      s_locals_direct = s.s_locals_direct + j ();
      s_racy = s.s_racy + j ();
    }
  in
  [| synth_item s |]

type workload = { w_name : string; jobs : int; build : unit -> item array }

let workload ~seed name =
  (* every set-up repetition regenerates the same inputs *)
  let rng () = Random.State.make [| 0x02b; seed |] in
  let big () = scaled ~rng:(rng ()) ~name:"bigapp" ~base:"zookeeper" ~k:2 in
  match name with
  | "corpus" ->
      { w_name = name; jobs = 1; build = (fun () -> corpus ~rng:(rng ())) }
  | "bigapp" -> { w_name = name; jobs = 1; build = big }
  | "bigapp-jobs2" -> { w_name = name; jobs = 2; build = big }
  | "eventstorm" ->
      {
        w_name = name;
        jobs = 1;
        build =
          (fun () ->
            scaled ~rng:(rng ()) ~name:"eventstorm" ~base:"chainstorm" ~k:4);
      }
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* verdicts                                                             *)

let field_name = function
  | Access.Tfield (_, f) -> f
  | Access.Tstatic (c, f) -> c ^ "::" ^ f

(* The races [Synth.program] seeds: racy field [race<j>] is written by
   participant [j mod n] and read by the next one (threads first, then
   handler classes), every participant writes each static [st<j>] and the
   cells of each shared array [arr<j>]. A race needs a thread on one side:
   two handlers run on the one serial event dispatcher. *)
let seeded_missing (s : Synth.spec) (report : Detect.report) =
  let reported = Hashtbl.create 16 in
  let array_targets = ref [] in
  List.iter
    (fun (r : Detect.race) ->
      let f = field_name r.r_target in
      Hashtbl.replace reported f ();
      if f = "*" && not (List.mem r.r_target !array_targets) then
        array_targets := r.r_target :: !array_targets)
    report.races;
  let n = s.s_thread_classes + s.s_event_classes in
  let is_thread p = p < s.s_thread_classes in
  let racy =
    List.init s.s_racy (fun j ->
        let w = j mod n in
        let r = (j + 1) mod n in
        let r = if r = w then (r + 1) mod n else r in
        if is_thread w || is_thread r then [ Printf.sprintf "race%d" j ] else [])
    |> List.concat
  in
  let statics =
    if s.s_thread_classes = 0 then []
    else List.init s.s_statics (Printf.sprintf "GlobalBox::st%d")
  in
  let missing = List.filter (fun f -> not (Hashtbl.mem reported f)) (racy @ statics) in
  if s.s_thread_classes > 0 && List.length !array_targets < s.s_arrays then
    Printf.sprintf "%d of %d seeded arrays" (List.length !array_targets)
      s.s_arrays
    :: missing
  else missing

let verify it ~report ~text =
  let d = Digest.string text in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  (match it.digest with
  | None -> it.digest <- Some d
  | Some d0 -> if d <> d0 then fail "render differs from its first repeat");
  List.iter
    (function
      | Races n ->
          let got = Detect.n_races report in
          if got <> n then fail "%d races, expected %d" got n
      | Golden g -> if text ^ "\n" <> g then fail "differs from its golden file"
      | Seeded s -> (
          match seeded_missing s report with
          | [] -> ()
          | m -> fail "seeded races not reported: %s" (String.concat ", " m))
      | Same_as r -> if d <> r then fail "differs from the serial render")
    it.checks;
  !fails


(* ------------------------------------------------------------------ *)
(* the analysis, with optional per-layer probes                         *)

let layers = [| "frontend"; "pta"; "shb"; "race"; "osa"; "report" |]

(* what each layer call records, per analysis *)
let layer_metrics =
  [
    ("ms", "ms");
    ("alloc_mw", "Mw");
    ("minor_mw", "Mw");
    ("promoted_mw", "Mw");
    ("major_mw", "Mw");
    ("minor_gcs", "count");
    ("major_gcs", "count");
  ]

(* Sink counters the traced run reads, under the stage's own name except
   the happens-before queries, which detection records as shb.* *)
let sink_counters =
  List.map
    (fun k -> (k, k))
    [
      "pta.worklist_iters"; "pta.pts_adds"; "pta.pts_facts"; "pta.fires";
      "pta.rounds"; "pta.scc_collapsed"; "shb.nodes"; "shb.access_nodes";
      "shb.hb_closure_size"; "race.pairs_checked"; "race.class_pruned";
      "race.races"; "osa.stmts_scanned"; "osa.shared_locations";
    ]
  @ [ ("race.hb_queries", "shb.hb_queries") ]

let sink_timers =
  List.map
    (fun p -> ("pta." ^ p ^ "_ms", "pta." ^ p))
    [ "lower"; "apply"; "propagate"; "flush"; "icg"; "scc" ]

(* Words allocated between two [Gc.quick_stat] samples. On OCaml 5 the
   sampled counters only advance at a minor collection, so each sample is
   taken right after one: the analysis starts from [Gc.full_major], and
   the harness runs [Gc.minor] after each timed call, outside its span
   (that forced collection is not counted among the call's own). *)
let alloc_words (g0 : Gc.stat) (g1 : Gc.stat) =
  g1.minor_words -. g0.minor_words +. (g1.major_words -. g0.major_words)
  -. (g1.promoted_words -. g0.promoted_words)

type tracer = {
  t0 : float;  (** trace timestamps are relative to it *)
  sums : (string, float) Hashtbl.t;  (** per-layer sums over traced analyses *)
  mutable events : string list;  (** Chrome trace events, newest first *)
  mutable traced : int;
}

let bump tr k v =
  Hashtbl.replace tr.sums k
    (v +. Option.value ~default:0. (Hashtbl.find_opt tr.sums k))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* one complete ("X") event of the Chrome trace-event format *)
let add_event tr ~name ~start ~stop args =
  let us t = (t -. tr.t0) *. 1e6 in
  tr.events <-
    Printf.sprintf
      {|{"name":%s,"cat":"o2bench","ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{%s}}|}
      (json_string name) (us start)
      (us stop -. us start)
      (String.concat ","
         (List.map (fun (k, v) -> json_string k ^ ":" ^ v) args))
    :: tr.events

type outcome = { ms : float; alloc : float; fails : string list }

(* One analysis. With a tracer, every layer call is a span with Gc
   deltas and the stages record into a fresh metrics sink. The sink is
   not passed to the renderer, which would append it to the report. *)
let analyze ?tracer ~jobs ~id it =
  let sink = Option.map (fun _ -> Metrics.create ()) tracer in
  let call =
    match tracer with
    | None -> fun _ f -> f ()
    | Some tr ->
        fun l f ->
          let g0 = Gc.quick_stat () in
          let start = now () in
          let r = f () in
          let stop = now () in
          Gc.minor ();
          let g1 = Gc.quick_stat () in
          let add k v = bump tr (layers.(l) ^ "." ^ k) v in
          add "ms" ((stop -. start) *. 1e3);
          add "alloc_mw" (alloc_words g0 g1 /. 1e6);
          add "minor_mw" ((g1.minor_words -. g0.minor_words) /. 1e6);
          add "promoted_mw" ((g1.promoted_words -. g0.promoted_words) /. 1e6);
          add "major_mw" ((g1.major_words -. g0.major_words) /. 1e6);
          add "minor_gcs"
            (float (g1.minor_collections - g0.minor_collections - 1));
          add "major_gcs"
            (float (g1.major_collections - g0.major_collections));
          add_event tr ~name:layers.(l) ~start ~stop
            [
              ("analysis", string_of_int id);
              ("alloc_words", Printf.sprintf "%.0f" (alloc_words g0 g1));
            ];
          r
  in
  let g0 = Gc.quick_stat () in
  let start = now () in
  match
    let p = call 0 (fun () -> Parser.parse_program ~file:it.file it.src) in
    let solver =
      call 1 (fun () -> Solver.analyze ~policy:it.policy ~jobs ?metrics:sink p)
    in
    let graph = call 2 (fun () -> Graph.build ?metrics:sink solver) in
    let report = call 3 (fun () -> Detect.run ?metrics:sink ~jobs graph) in
    ignore (call 4 (fun () -> O2_osa.Osa.run ?metrics:sink solver));
    let text =
      call 5 (fun () ->
          Report.render ~format:it.format { Report.solver; graph; report })
    in
    (report, text)
  with
  | exception e ->
      { ms = 0.; alloc = 0.; fails = [ "raised " ^ Printexc.to_string e ] }
  | report, text ->
      let stop = now () in
      Gc.minor ();
      let g1 = Gc.quick_stat () in
      (match (tracer, sink) with
      | Some tr, Some m ->
          add_event tr ~name:"analysis" ~start ~stop
            [ ("analysis", string_of_int id); ("program", json_string it.name) ];
          tr.traced <- tr.traced + 1;
          bump tr "frontend.bytes" (float (String.length it.src));
          bump tr "report.bytes" (float (String.length text));
          bump tr "race.candidates" (float (Metrics.get m "race.candidates"));
          List.iter
            (fun (k, name) -> bump tr k (float (Metrics.get m name)))
            sink_counters;
          List.iter
            (fun (k, name) -> bump tr k (Metrics.get_time m name *. 1e3))
            sink_timers
      | _ -> ());
      {
        ms = (stop -. start) *. 1e3;
        alloc = alloc_words g0 g1;
        fails = verify it ~report ~text;
      }

(* ------------------------------------------------------------------ *)
(* statistics                                                           *)

(* linear interpolation between order statistics *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = q *. float (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((x -. float i) *. (sorted.(i + 1) -. sorted.(i)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  quantile a 0.5

(* the highest whole percentile, at most 90, with at least ten samples
   beyond it (p50 when there are fewer than 20) *)
let tail_pct n = if n < 20 then 50 else min 90 (100 * (n - 10) / n)

(* The median over programs of each program's median time. A mixed
   corpus has a gap between its small hand-written programs and its
   synthetic ones, and the plain sample median of whole passes falls right
   on it, flipping between the two sides from run to run; the per-program
   medians do not. With one program this is the plain median. *)
let p50_of_programs samples =
  median (Array.to_list (Array.map median samples))

(* the per-layer metrics of the traced analyses, each a mean per analysis *)
let per_layer tr ~overhead_ms =
  let get k = Option.value ~default:0. (Hashtbl.find_opt tr.sums k) in
  let mean (k, unit) = (k, get k /. float (max 1 tr.traced), unit) in
  let ratio a b = if get b = 0. then 0. else get a /. get b in
  List.map mean
    (List.concat_map
       (fun l -> List.map (fun (k, u) -> (l ^ "." ^ k, u)) layer_metrics)
       (Array.to_list layers))
  @ List.map (fun (k, _) -> mean (k, "count")) sink_counters
  @ List.map (fun (k, _) -> mean (k, "ms")) sink_timers
  @ [
      ("race.yield", ratio "race.candidates" "race.pairs_checked", "ratio");
      ("pta.useful_adds", ratio "pta.pts_facts" "pta.pts_adds", "ratio");
      mean ("frontend.bytes", "B");
      mean ("report.bytes", "B");
      ("trace.overhead_ms", overhead_ms, "ms");
    ]

(* ------------------------------------------------------------------ *)
(* the run                                                              *)

let trace_dir = "perfbench/out"
let setup_reps = 5

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable shown : int;  (** failure messages printed so far *)
}

let record run it (o : outcome) =
  run.attempted <- run.attempted + 1;
  if o.fails <> [] then begin
    run.failed <- run.failed + 1;
    if run.shown < 10 then begin
      run.shown <- run.shown + 1;
      eprintf "FAIL %s: %s\n%!" it.name (String.concat "; " o.fails)
    end
  end

let write_trace tr ~path ~meta =
  (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      output_string oc (String.concat ",\n" (List.rev tr.events));
      Printf.fprintf oc "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{%s}}\n"
        (String.concat ","
           (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) meta)))

let usage () =
  prerr_endline
    "usage: o2bench --workload corpus|bigapp|eventstorm|bigapp-jobs2 --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload_name = ref "" and seed = ref 0 and seconds = ref 10.
  and trace = ref false in
  let rec args = function
    | [] -> ()
    | "--workload" :: v :: r -> workload_name := v; args r
    | "--seed" :: v :: r -> seed := int_of_string v; args r
    | "--seconds" :: v :: r -> seconds := float_of_string v; args r
    | "--trace" :: v :: r -> trace := v = "1"; args r
    | _ -> usage ()
  in
  (try args (List.tl (Array.to_list Sys.argv)) with _ -> usage ());
  if !workload_name = "" then usage ();
  let w = workload ~seed:!seed !workload_name in
  let run = { attempted = 0; failed = 0; shown = 0 } in
  let gc = Gc.get () in
  let env =
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("jobs", string_of_int w.jobs);
      ("gc.minor_heap_words", string_of_int gc.minor_heap_size);
      ("gc.space_overhead", string_of_int gc.space_overhead);
      ("OCAMLRUNPARAM", Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"));
    ]
  in
  eprintf "o2bench workload=%s seed=%d seconds=%g trace=%b\nenv: %s\n%!"
    w.w_name !seed !seconds !trace
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) env));
  let id = ref 0 in
  (* every analysis starts from a collected heap, as in a fresh process:
     without this, a short analysis pays for the garbage of the one before
     it, and the corpus order (which the seed sets) moves the timings *)
  let round ?tracer items =
    List.map
      (fun it ->
        incr id;
        Gc.full_major ();
        let o = analyze ?tracer ~jobs:w.jobs ~id:!id it in
        record run it o;
        o)
      (Array.to_list items)
  in
  (* set-up: generate and render the sources, then warm up with one
     round; done [setup_reps] times, and the median reported *)
  let setup () =
    let t = now () in
    let items = w.build () in
    ignore (round items);
    (now () -. t, items)
  in
  let setups = List.init setup_reps (fun _ -> setup ()) in
  let setup_s = median (List.map fst setups) in
  let items = snd (List.nth setups (setup_reps - 1)) in
  if w.jobs > 1 then
    (* the parallel render must equal the serial one *)
    Array.iter
      (fun it ->
        let serial = { it with checks = []; digest = None } in
        record run serial (analyze ~jobs:1 ~id:0 serial);
        Option.iter (fun d -> it.checks <- Same_as d :: it.checks) serial.digest)
      items;
  eprintf "%d program(s), %.0f KB of CIR per round\n%!" (Array.length items)
    (float (Array.fold_left (fun a it -> a + String.length it.src) 0 items)
    /. 1024.);
  (* the measured window: whole rounds until --seconds have passed; with
     --trace 1 every other round is traced, so both halves see the same
     machine *)
  let t0 = now () in
  let tracer = { t0; sums = Hashtbl.create 64; events = []; traced = 0 } in
  let plain = Array.map (fun _ -> []) items in
  let traced = Array.map (fun _ -> []) items in
  let alloc = ref [] and n = ref 0 and k = ref 0 in
  while now () -. t0 < !seconds do
    let is_traced = !trace && !k mod 2 = 1 in
    let os = if is_traced then round ~tracer items else round items in
    let words = ref 0. in
    List.iteri
      (fun i o ->
        if o.fails <> [] then ()
        else if is_traced then traced.(i) <- o.ms :: traced.(i)
        else begin
          plain.(i) <- o.ms :: plain.(i);
          words := !words +. o.alloc;
          incr n
        end)
      os;
    if not is_traced then
      alloc := (!words /. float (List.length os)) :: !alloc;
    incr k
  done;
  let window = now () -. t0 in
  let top_heap = (Gc.quick_stat ()).top_heap_words in
  let sorted = Array.of_list (List.concat (Array.to_list plain)) in
  Array.sort compare sorted;
  let n_plain = Array.length sorted in
  let tail = tail_pct n_plain in
  let p50 = p50_of_programs plain in
  let metrics =
    if !trace then
      per_layer tracer ~overhead_ms:(p50_of_programs traced -. p50)
    else
      [
        ("setup_s", setup_s, "s");
        ("analyze_ms.p50", p50, "ms");
        ("analyze_ms.p90", quantile sorted (float tail /. 100.), "ms");
        ("analyses_per_s", float !n /. window, "1/s");
        ("alloc_mw_per_analysis", median !alloc /. 1e6, "Mw");
        ( "peak_heap_mb",
          float top_heap *. float (Sys.word_size / 8) /. 1048576.,
          "MB" );
      ]
  in
  if !trace then begin
    let path =
      Filename.concat trace_dir
        (Printf.sprintf "trace-%s-seed%d.json" w.w_name !seed)
    in
    write_trace tracer ~path
      ~meta:(("workload", w.w_name) :: ("seed", string_of_int !seed) :: env);
    eprintf "trace: %s (%d traced analyses, %d untraced)\n" path tracer.traced
      n_plain
  end;
  List.iter
    (fun (name, v, unit) ->
      let note =
        match name with
        | "setup_s" -> Printf.sprintf "  (median of %d)" setup_reps
        | "analyze_ms.p50" ->
            Printf.sprintf "  (n=%d over %d program(s))" n_plain
              (Array.length items)
        | "analyze_ms.p90" when tail <> 90 ->
            Printf.sprintf
              "  (this is p%d: n=%d has ten samples beyond p%d, not beyond p90)"
              tail n_plain tail
        | _ -> ""
      in
      eprintf "%-28s %14.4f %s%s\n" name v unit note)
    metrics;
  eprintf "%-28s %14.4f ratio  (%d/%d analyses)\n%!" "failed_frac"
    (float run.failed /. float (max 1 run.attempted))
    run.failed run.attempted;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (run.failed = 0 && run.attempted > 0)
    run.attempted run.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
              (num v) (json_string unit))
          metrics))
