(* Tests for the paper-motivated extensions: semaphore happens-before rules
   (§4.3 future work), explicit origin annotations (§3.1), and the
   "beyond races" clients — deadlock and over-synchronization (§3). *)

open O2_ir.Builder
open O2_pta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let session ?(policy = Context.Korigin 1) p =
  O2.run { O2.Config.default with policy } p

let o2_races ?policy p = O2_race.Detect.n_races (session ?policy p).O2.report

let deadlocks p = O2_race.Deadlock.run (session p).O2.graph

let oversync ?policy p =
  let r = session ?policy p in
  O2_race.Oversync.run r.O2.solver r.O2.osa

(* ---------------- semaphores ---------------- *)

(* the classic init handshake: main writes, signals; thread waits, reads.
   Without the semaphore HB rule this is a race; with it, ordered. *)
let handshake ~with_signal =
  let run_body =
    [ fread "d" "this" "s"; fread "sem" "this" "sem" ]
    @ (if with_signal then [ wait "sem" ] else [])
    @ [ fread "x" "d" "v"; ret None ]
  in
  let main_body =
    [
      new_ "d" "Data" [];
      new_ "sem" "Data" [];
      new_ "w" "W" [ "d"; "sem" ];
      start "w";
      fwrite "d" "v" "d";  (* after start: unordered unless signalled *)
    ]
    @ (if with_signal then [ signal "sem" ] else [])
  in
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "W" ~super:"Thread" ~fields:[ "s"; "sem" ]
        [
          meth "init" [ "s"; "sem" ]
            [ fwrite "this" "s" "s"; fwrite "this" "sem" "sem" ];
          meth "run" [] run_body;
        ];
      cls "M" [ meth ~static:true "main" [] main_body ];
    ]

let test_semaphore_orders_statically () =
  check_int "without handshake: race" 1 (o2_races (handshake ~with_signal:false));
  check_int "with handshake: ordered" 0 (o2_races (handshake ~with_signal:true))

let test_semaphore_naive_agrees () =
  let cfg = { O2.Config.default with lock_region = false } in
  let r =
    O2_race.Naive.run (O2.run cfg (handshake ~with_signal:true)).O2.graph
  in
  check_int "naive sees the sem edge too" 0 (O2_race.Detect.n_races r)

let test_semaphore_two_signals_no_edge () =
  (* two static signal sites: no must-HB, the race must be kept (sound) *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s"; "sem" ]
          [
            meth "init" [ "s"; "sem" ]
              [ fwrite "this" "s" "s"; fwrite "this" "sem" "sem" ];
            meth "run" []
              [
                fread "d" "this" "s";
                fread "sem" "this" "sem";
                wait "sem";
                fread "x" "d" "v";
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "sem" "Data" [];
                new_ "w" "W" [ "d"; "sem" ];
                start "w";
                if_ [ signal "sem" ] [];
                fwrite "d" "v" "d";
                signal "sem";
              ];
          ];
      ]
  in
  check_bool "ambiguous signals keep the race" true (o2_races p >= 1)

let test_semaphore_dynamic () =
  (* the interpreter blocks waits until signalled, and the dynamic detector
     sees the ordering *)
  let o = O2_runtime.Interp.run ~seed:3 (handshake ~with_signal:true) in
  check_bool "completes" true o.O2_runtime.Interp.completed;
  check_bool "signal event" true
    (List.exists
       (function O2_runtime.Interp.Esignal _ -> true | _ -> false)
       o.O2_runtime.Interp.events);
  check_int "no dynamic race" 0
    (List.length (O2_runtime.Dynrace.check (handshake ~with_signal:true)));
  check_bool "dynamic race without handshake" true
    (List.length (O2_runtime.Dynrace.check (handshake ~with_signal:false)) >= 1)

let test_semaphore_parser_roundtrip () =
  let src =
    "main M;\nclass M { static method main() { local s; s = new M(); signal \
     s; wait s; } }"
  in
  let p = O2_frontend.Parser.parse_string src in
  let src2 = O2_ir.Pp.program_to_string p in
  let p2 = O2_frontend.Parser.parse_string src2 in
  Alcotest.(check string) "fixpoint" src2 (O2_ir.Pp.program_to_string p2)

(* ---------------- origin annotations ---------------- *)

let test_annotation_thread_class () =
  (* a custom user-level thread marked with the annotation, no builtin
     inheritance *)
  let src =
    {|main M;
class Data { field v; }
thread class Fiber {
  field s;
  method init(s) { this.s = s; }
  method run() { local d; d = this.s; d.v = d; }
}
class M {
  static method main() {
    local d, f1, f2;
    d = new Data();
    f1 = new Fiber(d);
    f2 = new Fiber(d);
    start f1;
    start f2;
  }
}
|}
  in
  let p = O2_frontend.Parser.parse_string src in
  (match O2_ir.Program.kind_of p "Fiber" with
  | O2_ir.Program.Kthread "run" -> ()
  | _ -> Alcotest.fail "annotation should make Fiber a thread");
  check_int "annotated threads race" 1 (o2_races p)

let test_annotation_custom_entry () =
  let src =
    {|main M;
class Data { field v; }
thread(step) class Coroutine {
  field s;
  method init(s) { this.s = s; }
  method step() { local d; d = this.s; d.v = d; }
}
class M {
  static method main() {
    local d, c1, c2;
    d = new Data();
    c1 = new Coroutine(d);
    c2 = new Coroutine(d);
    start c1;
    start c2;
  }
}
|}
  in
  let p = O2_frontend.Parser.parse_string src in
  (match O2_ir.Program.kind_of p "Coroutine" with
  | O2_ir.Program.Kthread "step" -> ()
  | _ -> Alcotest.fail "custom entry name");
  check_int "custom-entry threads analyzed" 1 (o2_races p)

let test_annotation_handler () =
  let src =
    {|main M;
class Data { field v; }
handler class Cb {
  field s;
  method init(s) { this.s = s; }
  method handle() { local d; d = this.s; d.v = d; }
}
class M {
  static method main() {
    local d, c;
    d = new Data();
    c = new Cb(d);
    post c();
    post c();
  }
}
|}
  in
  let p = O2_frontend.Parser.parse_string src in
  (match O2_ir.Program.kind_of p "Cb" with
  | O2_ir.Program.Khandler "handle" -> ()
  | _ -> Alcotest.fail "annotation should make Cb a handler");
  (* serialized by the dispatcher: no race *)
  check_int "annotated handlers serialized" 0 (o2_races p)

let test_annotation_builder_and_pp () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "F" ~origin:(O2_ir.Ast.Athread "go")
          [ meth "go" [] [ ret None ] ];
        cls "M"
          [ meth ~static:true "main" [] [ new_ "f" "F" []; start "f" ] ];
      ]
  in
  let src = O2_ir.Pp.program_to_string p in
  let p2 = O2_frontend.Parser.parse_string src in
  match O2_ir.Program.kind_of p2 "F" with
  | O2_ir.Program.Kthread "go" -> ()
  | _ -> Alcotest.fail "annotation survives pp/parse"

(* ---------------- deadlock detection ---------------- *)

let ab_ba ~consistent =
  let order1 = [ sync "a" [ sync "b" [ fwrite "a" "v" "a" ] ] ] in
  let order2 =
    if consistent then [ sync "a" [ sync "b" [ fwrite "b" "v" "b" ] ] ]
    else [ sync "b" [ sync "a" [ fwrite "b" "v" "b" ] ] ]
  in
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "T1" ~super:"Thread" ~fields:[ "a"; "b" ]
        [
          meth "init" [ "a"; "b" ]
            [ fwrite "this" "a" "a"; fwrite "this" "b" "b" ];
          meth "run" []
            ([ fread "a" "this" "a"; fread "b" "this" "b" ] @ order1
            @ [ ret None ]);
        ];
      cls "T2" ~super:"Thread" ~fields:[ "a"; "b" ]
        [
          meth "init" [ "a"; "b" ]
            [ fwrite "this" "a" "a"; fwrite "this" "b" "b" ];
          meth "run" []
            ([ fread "a" "this" "a"; fread "b" "this" "b" ] @ order2
            @ [ ret None ]);
        ];
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "l1" "Data" [];
              new_ "l2" "Data" [];
              new_ "t1" "T1" [ "l1"; "l2" ];
              new_ "t2" "T2" [ "l1"; "l2" ];
              start "t1";
              start "t2";
            ];
        ];
    ]

let test_deadlock_ab_ba () =
  let r = deadlocks (ab_ba ~consistent:false) in
  check_bool "AB/BA flagged" true (O2_race.Deadlock.n_deadlocks r >= 1)

let test_deadlock_consistent_order_clean () =
  let r = deadlocks (ab_ba ~consistent:true) in
  check_int "consistent order clean" 0 (O2_race.Deadlock.n_deadlocks r)

let test_deadlock_single_origin_not_flagged () =
  (* one thread acquiring in both orders sequentially cannot deadlock *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "a" "Data" [];
                new_ "b" "Data" [];
                sync "a" [ sync "b" [ fwrite "a" "v" "a" ] ];
                sync "b" [ sync "a" [ fwrite "b" "v" "b" ] ];
              ];
          ];
      ]
  in
  let r = deadlocks p in
  check_int "single origin clean" 0 (O2_race.Deadlock.n_deadlocks r)

let test_deadlock_matches_interpreter () =
  (* the statically-flagged program actually deadlocks in some schedule *)
  let p = ab_ba ~consistent:false in
  let deadlocked = ref false in
  for seed = 0 to 30 do
    if (O2_runtime.Interp.run ~seed p).O2_runtime.Interp.deadlocked then
      deadlocked := true
  done;
  check_bool "interpreter confirms" true !deadlocked;
  let q = ab_ba ~consistent:true in
  for seed = 0 to 30 do
    check_bool "consistent order never deadlocks" false
      (O2_runtime.Interp.run ~seed q).O2_runtime.Interp.deadlocked
  done

(* ---------------- over-synchronization ---------------- *)

let test_oversync_local_lock_flagged () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "l" ]
          [
            meth "init" [ "l" ] [ fwrite "this" "l" "l" ];
            meth "run" []
              [
                fread "l" "this" "l";
                new_ "mine" "Data" [];
                sync "l" [ fwrite "mine" "v" "mine" ];  (* useless lock *)
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "l" "Data" [];
                new_ "w" "W" [ "l" ];
                start "w";
              ];
          ];
      ]
  in
  let r = oversync p in
  check_int "useless lock flagged" 1 (O2_race.Oversync.n_findings r)

let test_oversync_shared_lock_not_flagged () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s"; "l" ]
          [
            meth "init" [ "s"; "l" ]
              [ fwrite "this" "s" "s"; fwrite "this" "l" "l" ];
            meth "run" []
              [
                fread "s" "this" "s";
                fread "l" "this" "l";
                sync "l" [ fwrite "s" "v" "s" ];  (* lock earns its keep *)
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "s" "Data" [];
                new_ "l" "Data" [];
                new_ "w1" "W" [ "s"; "l" ];
                new_ "w2" "W" [ "s"; "l" ];
                start "w1";
                start "w2";
              ];
          ];
      ]
  in
  let r = oversync p in
  check_int "needed lock kept" 0 (O2_race.Oversync.n_findings r)

let test_oversync_0ctx_misses () =
  (* under 0-ctx, the two threads' local data merge and look shared, hiding
     the over-synchronization — the precision argument again *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "l" ]
          [
            meth "init" [ "l" ] [ fwrite "this" "l" "l" ];
            meth "run" []
              [
                fread "l" "this" "l";
                new_ "mine" "Data" [];
                sync "l" [ fwrite "mine" "v" "mine" ];
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "l" "Data" [];
                new_ "w1" "W" [ "l" ];
                new_ "w2" "W" [ "l" ];
                start "w1";
                start "w2";
              ];
          ];
      ]
  in
  let ro = oversync ~policy:(Context.Korigin 1) p in
  let r0 = oversync ~policy:Context.Insensitive p in
  check_int "O2 finds it" 1 (O2_race.Oversync.n_findings ro);
  check_int "0-ctx blind" 0 (O2_race.Oversync.n_findings r0)


(* ---------------- Android lifecycle harness (§4.2) ---------------- *)

let newsreader_src =
  {|
class ArticleCache { field entries; field etag; }

class Fetcher extends Thread {
  field cache;
  method init(cache) { this.cache = cache; }
  method run() {
    local cache;
    cache = this.cache;
    cache.entries = cache;
  }
}

class RefreshReceiver extends Receiver {
  field cache;
  method init(cache) { this.cache = cache; }
  method onReceive(intent) {
    local cache, snapshot;
    cache = this.cache;
    snapshot = cache.entries;
  }
}

class MainActivity extends Activity {
  field cache;
  method onCreate() {
    local cache, rx, fetcher, intent;
    cache = new ArticleCache();
    this.cache = cache;
    rx = new RefreshReceiver(cache);
    intent = new ArticleCache();
    post rx(intent);
    fetcher = new Fetcher(cache);
    start fetcher;
  }
  method onPause() {
    local cache;
    cache = this.cache;
    cache.etag = cache;
  }
  method onDestroy() {
    local cache;
    cache = this.cache;
    cache.etag = cache;
  }
}

class SettingsActivity extends Activity {
  field prefs;
  method onCreate() {
    local p;
    p = new ArticleCache();
    this.prefs = p;
  }
}
|}

let parse_app () =
  O2_frontend.Parser.parse_classes ~file:"newsreader.cir" newsreader_src

let test_harness_generation () =
  let classes = parse_app () in
  Alcotest.(check (list string))
    "activities found"
    [ "MainActivity"; "SettingsActivity" ]
    (O2_ir.Harness.activity_classes classes);
  let p = O2_ir.Harness.android classes in
  let main = O2_ir.Program.main p in
  Alcotest.(check string) "harness main" "O2AndroidHarness" main.m_class;
  (* the AndroidRt starters exist for every activity *)
  check_bool "starter for MainActivity" true
    (O2_ir.Program.static_method p "AndroidRt" "start_MainActivity" <> None);
  check_bool "starter for SettingsActivity" true
    (O2_ir.Program.static_method p "AndroidRt" "start_SettingsActivity" <> None);
  check_int "harness lints clean" 0
    (List.length (O2_ir.Wellformed.check p))

let test_harness_detects_the_race () =
  let p = O2_ir.Harness.android (parse_app ()) in
  let r = (session p).O2.report in
  (* exactly the fetcher/receiver race; lifecycle writes are same-origin *)
  check_int "one race through the harness" 1 (O2_race.Detect.n_races r)

let test_harness_lifecycle_is_ordered () =
  (* onPause and onDestroy both write etag but run as ordered calls on the
     harness origin: no race between lifecycle handlers, as §4.2 specifies *)
  let p = O2_ir.Harness.android (parse_app ()) in
  let r = (session p).O2.report in
  check_bool "no etag race" true
    (List.for_all
       (fun (race : O2_race.Detect.race) ->
         match race.r_target with
         | Access.Tfield (_, f) -> f <> "etag"
         | _ -> true)
       r.O2_race.Detect.races)

let test_harness_explicit_activity () =
  let p =
    O2_ir.Harness.android ~main_activity:"SettingsActivity" (parse_app ())
  in
  (* driving only SettingsActivity reaches neither the fetcher nor the
     receiver: no races *)
  let r = (session p).O2.report in
  check_int "settings-only harness is clean" 0 (O2_race.Detect.n_races r)

let test_harness_no_activity () =
  match O2_ir.Harness.android [] with
  | exception O2_ir.Harness.No_activity _ -> ()
  | _ -> Alcotest.fail "expected No_activity"

let test_harness_runs_on_interpreter () =
  let p = O2_ir.Harness.android (parse_app ()) in
  let o = O2_runtime.Interp.run ~seed:1 p in
  check_bool "harnessed app executes" true o.O2_runtime.Interp.completed

let () =
  Alcotest.run "extensions"
    [
      ( "semaphores",
        [
          Alcotest.test_case "static handshake" `Quick
            test_semaphore_orders_statically;
          Alcotest.test_case "naive agrees" `Quick test_semaphore_naive_agrees;
          Alcotest.test_case "ambiguous signals" `Quick
            test_semaphore_two_signals_no_edge;
          Alcotest.test_case "dynamic" `Quick test_semaphore_dynamic;
          Alcotest.test_case "parser roundtrip" `Quick
            test_semaphore_parser_roundtrip;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "thread class" `Quick test_annotation_thread_class;
          Alcotest.test_case "custom entry" `Quick test_annotation_custom_entry;
          Alcotest.test_case "handler class" `Quick test_annotation_handler;
          Alcotest.test_case "builder+pp" `Quick test_annotation_builder_and_pp;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "AB/BA" `Quick test_deadlock_ab_ba;
          Alcotest.test_case "consistent order" `Quick
            test_deadlock_consistent_order_clean;
          Alcotest.test_case "single origin" `Quick
            test_deadlock_single_origin_not_flagged;
          Alcotest.test_case "interpreter confirms" `Quick
            test_deadlock_matches_interpreter;
        ] );
      ( "android-harness",
        [
          Alcotest.test_case "generation" `Quick test_harness_generation;
          Alcotest.test_case "finds the race" `Quick
            test_harness_detects_the_race;
          Alcotest.test_case "lifecycle ordered" `Quick
            test_harness_lifecycle_is_ordered;
          Alcotest.test_case "explicit activity" `Quick
            test_harness_explicit_activity;
          Alcotest.test_case "no activity" `Quick test_harness_no_activity;
          Alcotest.test_case "interpreter" `Quick
            test_harness_runs_on_interpreter;
        ] );
      ( "oversync",
        [
          Alcotest.test_case "local lock flagged" `Quick
            test_oversync_local_lock_flagged;
          Alcotest.test_case "shared lock kept" `Quick
            test_oversync_shared_lock_not_flagged;
          Alcotest.test_case "0-ctx blind" `Quick test_oversync_0ctx_misses;
        ] );
    ]
