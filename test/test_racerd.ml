open O2_ir.Builder
open O2_racerd

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let warnings p = Racerd.n_warnings (Racerd.analyze p)

(* two thread classes, same field name, one unlocked write: flagged *)
let test_basic_warning () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "A" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "B" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fread "x" "d" "v"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "a" "A" [ "d" ];
                new_ "b" "B" [ "d" ];
                start "a";
                start "b";
              ];
          ];
      ]
  in
  check_bool "warned" true (warnings p > 0)

(* ownership: a freshly allocated object's accesses are never reported *)
let test_ownership_suppresses () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "A" ~super:"Thread"
          [
            meth "run" []
              [ new_ "d" "Data" []; fwrite "d" "v" "d"; ret None ];
          ];
        cls "B" ~super:"Thread"
          [
            meth "run" []
              [ new_ "d" "Data" []; fread "x" "d" "v"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "a" "A" [];
                new_ "b" "B" [];
                start "a";
                start "b";
              ];
          ];
      ]
  in
  check_int "owned: silent" 0 (warnings p)

(* reassignment from a field kills ownership *)
let test_ownership_lost_on_reassign () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "A" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" []
              [
                new_ "d" "Data" [];
                fread "d" "this" "s";  (* d no longer owned *)
                fwrite "d" "v" "d";
                ret None;
              ];
          ];
        cls "B" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fread "x" "d" "v"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "a" "A" [ "d" ];
                new_ "b" "B" [ "d" ];
                start "a";
                start "b";
              ];
          ];
      ]
  in
  check_bool "reported after ownership lost" true (warnings p > 0)

(* both sides locked: quiet; one side unlocked: unprotected-write warning *)
let test_lock_consistency () =
  let mk_b locked =
    let acc = fwrite "d" "v" "d" in
    let body =
      [ fread "d" "this" "s"; fread "l" "this" "l" ]
      @ (if locked then [ sync "l" [ acc ] ] else [ acc ])
      @ [ ret None ]
    in
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "A" ~super:"Thread" ~fields:[ "s"; "l" ]
          [
            meth "init" [ "s"; "l" ]
              [ fwrite "this" "s" "s"; fwrite "this" "l" "l" ];
            meth "run" []
              [
                fread "d" "this" "s";
                fread "l" "this" "l";
                sync "l" [ fwrite "d" "v" "d" ];
                ret None;
              ];
          ];
        cls "B" ~super:"Thread" ~fields:[ "s"; "l" ]
          [
            meth "init" [ "s"; "l" ]
              [ fwrite "this" "s" "s"; fwrite "this" "l" "l" ];
            meth "run" [] body;
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "l" "Data" [];
                new_ "a" "A" [ "d"; "l" ];
                new_ "b" "B" [ "d"; "l" ];
                start "a";
                start "b";
              ];
          ];
      ]
  in
  check_int "both locked: quiet" 0 (warnings (mk_b true));
  check_bool "unlocked write flagged" true (warnings (mk_b false) > 0)

(* no pointer reasoning: two DISTINCT objects with the same field name are
   conflated — a false positive O2 does not make *)
let test_false_positive_from_no_aliasing () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "A" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "B" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d1" "Data" [];
                new_ "d2" "Data" [];  (* disjoint objects! *)
                new_ "a" "A" [ "d1" ];
                new_ "b" "B" [ "d2" ];
                start "a";
                start "b";
              ];
          ];
      ]
  in
  check_bool "RacerD flags the non-race" true (warnings p > 0);
  let r = (O2.run O2.Config.default p).O2.report in
  check_int "O2 does not" 0 (O2_race.Detect.n_races r)

(* Table 10 models: "RacerD either fails to find the races or cannot run" —
   with no pointer or thread-instance reasoning it misses races O2 finds
   (e.g. all of cpqueue's same-class pair races), and on the synthetic
   Dacapo workloads its field-name conflation makes it far noisier. *)
let test_models_racerd_vs_o2 () =
  let misses_somewhere =
    List.exists
      (fun (m : O2_workloads.Models.model) ->
        let p = m.program () in
        let rd = Racerd.n_warnings (Racerd.analyze p) in
        let r = (O2.run O2.Config.default p).O2.report in
        rd < O2_race.Detect.n_races r)
      O2_workloads.Models.all
  in
  check_bool "RacerD misses races on at least one model" true misses_somewhere;
  let p = O2_workloads.Synth.program (O2_workloads.Synth.find "avrora") in
  let rd = Racerd.n_warnings (Racerd.analyze p) in
  let r = (O2.run O2.Config.default p).O2.report in
  check_bool "RacerD noisier than O2 on the Dacapo-shaped workload" true
    (rd > O2_race.Detect.n_races r)

let test_fixed_models_quiet_enough () =
  (* on the repaired code, consistent locking keeps RacerD mostly quiet *)
  let m = O2_workloads.Models.find "zookeeper" in
  check_int "fixed zookeeper quiet" 0 (warnings (m.fixed ()))

let () =
  Alcotest.run "racerd"
    [
      ( "racerd",
        [
          Alcotest.test_case "basic warning" `Quick test_basic_warning;
          Alcotest.test_case "ownership" `Quick test_ownership_suppresses;
          Alcotest.test_case "ownership lost" `Quick
            test_ownership_lost_on_reassign;
          Alcotest.test_case "lock consistency" `Quick test_lock_consistency;
          Alcotest.test_case "no-alias false positive" `Quick
            test_false_positive_from_no_aliasing;
          Alcotest.test_case "models vs O2" `Quick test_models_racerd_vs_o2;
          Alcotest.test_case "fixed model quiet" `Quick
            test_fixed_models_quiet_enough;
        ] );
    ]
