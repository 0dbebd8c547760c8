open O2_ir.Builder
open O2_pta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_osa ?(policy = Context.Korigin 1) p =
  let a = Solver.analyze ~policy p in
  (a, O2_osa.Osa.run a)

(* two threads sharing one object, one thread-local object each *)
let shared_and_local () =
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "W" ~super:"Thread" ~fields:[ "sh" ]
        [
          meth "init" [ "s" ] [ fwrite "this" "sh" "s" ];
          meth "run" []
            [
              fread "s" "this" "sh";
              fwrite "s" "v" "s";  (* shared write *)
              new_ "loc" "Data" [];
              fwrite "loc" "v" "loc";  (* origin-local *)
              ret None;
            ];
        ];
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "s" "Data" [];
              new_ "w1" "W" [ "s" ];
              new_ "w2" "W" [ "s" ];
              start "w1";
              start "w2";
            ];
        ];
    ]

let test_shared_detected () =
  let a, osa = run_osa (shared_and_local ()) in
  let shared = O2_osa.Osa.shared_locations osa in
  (* the shared Data.v plus the two W.sh fields written by main and read by
     each thread *)
  check_bool "some shared" true (List.length shared >= 1);
  let has_data_v =
    List.exists
      (fun (sh : O2_osa.Osa.sharing) ->
        match sh.sh_target with
        | Access.Tfield (oid, "v") ->
            (Pag.obj (a.Solver.pag) oid).Pag.ob_class = "Data"
        | _ -> false)
      shared
  in
  check_bool "Data.v shared" true has_data_v

let test_local_not_shared () =
  let a, osa = run_osa (shared_and_local ()) in
  (* the loc objects: each written by exactly one origin *)
  let local_shared =
    List.exists
      (fun (sh : O2_osa.Osa.sharing) ->
        match sh.sh_target with
        | Access.Tfield (oid, _) ->
            let o = Pag.obj (a.Solver.pag) oid in
            (* loc allocs are inside run(): their heap ctx is a thread
               origin, and they must not be shared *)
            o.Pag.ob_class = "Data"
            && (match o.Pag.ob_hctx with
               | Context.Corigin (og :: _) -> og <> 0
               | _ -> false)
        | _ -> false)
      (O2_osa.Osa.shared_locations osa)
  in
  check_bool "thread-local object not shared" false local_shared

let test_local_shared_under_0ctx () =
  (* the same program under 0-ctx conflates the two locs: falsely shared *)
  let _, osa = run_osa ~policy:Context.Insensitive (shared_and_local ()) in
  let _, osa_o2 = run_osa (shared_and_local ()) in
  check_bool "0-ctx reports more shared accesses" true
    (O2_osa.Osa.n_shared_accesses osa > O2_osa.Osa.n_shared_accesses osa_o2)

let test_readers_vs_writers () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "Writer" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "Reader" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fread "x" "d" "v"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "s" "Data" [];
                new_ "w" "Writer" [ "s" ];
                new_ "r" "Reader" [ "s" ];
                start "w";
                start "r";
              ];
          ];
      ]
  in
  let a, osa = run_osa p in
  let sh =
    List.find
      (fun (sh : O2_osa.Osa.sharing) ->
        match sh.sh_target with
        | Access.Tfield (oid, "v") ->
            (Pag.obj (a.Solver.pag) oid).Pag.ob_class = "Data"
        | _ -> false)
      (O2_osa.Osa.shared_locations osa)
  in
  check_int "one writer origin" 1 (List.length sh.sh_writers);
  check_int "one reader origin" 1 (List.length sh.sh_readers);
  check_bool "distinct" true (sh.sh_writers <> sh.sh_readers)

let test_read_only_not_shared () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "R" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fread "x" "d" "v"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "s" "Data" [];
                new_ "r1" "R" [ "s" ];
                new_ "r2" "R" [ "s" ];
                start "r1";
                start "r2";
              ];
          ];
      ]
  in
  let a, osa = run_osa p in
  let data_v_shared =
    List.exists
      (fun (sh : O2_osa.Osa.sharing) ->
        match sh.sh_target with
        | Access.Tfield (oid, "v") ->
            (Pag.obj (a.Solver.pag) oid).Pag.ob_class = "Data"
        | _ -> false)
      (O2_osa.Osa.shared_locations osa)
  in
  check_bool "read-only location is not origin-shared" false data_v_shared

(* statics: OSA distinguishes a static used by a single origin (§3.3's
   advantage over escape analysis) *)
let test_static_single_origin () =
  let p =
    prog ~main:"M"
      [
        cls "G" ~sfields:[ "only_main"; "both" ] [];
        cls "Data" [];
        cls "W" ~super:"Thread"
          [ meth "run" [] [ sread "x" "G" "both"; ret None ] ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                swrite "G" "only_main" "d";
                sread "r" "G" "only_main";
                swrite "G" "both" "d";
                new_ "w" "W" [];
                start "w";
              ];
          ];
      ]
  in
  let _, osa = run_osa p in
  check_bool "single-origin static not shared" false
    (O2_osa.Osa.is_shared_target osa (Access.Tstatic ("G", "only_main")));
  check_bool "cross-origin static shared" true
    (O2_osa.Osa.is_shared_target osa (Access.Tstatic ("G", "both")))

(* arrays share through the * field *)
let test_array_sharing () =
  let p =
    prog ~main:"M"
      [
        cls "Arr" [];
        cls "W" ~super:"Thread" ~fields:[ "a" ]
          [
            meth "init" [ "a" ] [ fwrite "this" "a" "a" ];
            meth "run" [] [ fread "a" "this" "a"; awrite "a" "a"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "arr" "Arr" [];
                new_ "w1" "W" [ "arr" ];
                new_ "w2" "W" [ "arr" ];
                start "w1";
                start "w2";
              ];
          ];
      ]
  in
  let a, osa = run_osa p in
  let star_shared =
    List.exists
      (fun (sh : O2_osa.Osa.sharing) ->
        match sh.sh_target with
        | Access.Tfield (oid, "*") ->
            (Pag.obj (a.Solver.pag) oid).Pag.ob_class = "Arr"
        | _ -> false)
      (O2_osa.Osa.shared_locations osa)
  in
  check_bool "array cell shared" true star_shared

let test_counts_figure2 () =
  let a, osa = run_osa (O2_workloads.Figures.figure2 ()) in
  ignore a;
  (* the T.s / T.op fields are written by main and read by the threads:
     shared; the Data y objects are origin-local *)
  check_bool "some shared accesses" true (O2_osa.Osa.n_shared_accesses osa > 0);
  check_bool "some shared objects" true (O2_osa.Osa.n_shared_objects osa > 0)

let test_origin_local_report () =
  let a, osa = run_osa (shared_and_local ()) in
  let sps = a.Solver.spawns in
  let thread_sp =
    Array.to_list sps |> List.find (fun (s : Solver.spawn) -> s.sp_kind = `Thread)
  in
  let locals = O2_osa.Osa.origin_local_objects osa thread_sp.sp_id in
  check_bool "thread has an origin-local object" true (List.length locals >= 1)

(* under 0-ctx a thread started in a loop is one self-parallel origin: its
   run-time instances are two accessors of the Data object it writes, so
   the object is shared, not local to the origin *)
let test_self_parallel_writer () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                while_ [ new_ "w" "W" [ "d" ]; start "w" ];
              ];
          ];
      ]
  in
  let a, osa = run_osa ~policy:Context.Insensitive p in
  let w =
    Array.to_list a.Solver.spawns
    |> List.find (fun (s : Solver.spawn) -> s.sp_kind = `Thread)
  in
  check_bool "W is self-parallel" true (Solver.self_parallel a w.sp_id);
  let data_v =
    List.find_map
      (fun (sh : O2_osa.Osa.sharing) ->
        match sh.sh_target with
        | Access.Tfield (oid, "v") -> Some (oid, sh)
        | _ -> None)
      (O2_osa.Osa.shared_locations osa)
  in
  match data_v with
  | None -> Alcotest.fail "Data.v is not shared"
  | Some (oid, sh) ->
      check_bool "one accessor" true
        (sh.sh_readers = [] && List.length sh.sh_writers = 1);
      check_bool "flagged self-parallel" true sh.sh_self_par;
      check_bool "Data not origin-local" false
        (List.mem oid (O2_osa.Osa.origin_local_objects osa w.sp_id))

(* [origin_local_objects] against its definition, checked by brute
   force: an object the origin accesses through some field, none of whose
   locations is accessed by another origin or by a self-parallel one *)
let test_origin_local_oracle () =
  List.iter
    (fun (name, policy) ->
      let p = O2_workloads.Synth.program (O2_workloads.Synth.find name) in
      let a, osa = run_osa ~policy p in
      let fl = a.Solver.flat in
      let locs =
        List.concat_map
          (fun oid ->
            List.filter_map
              (fun fid ->
                let f = O2_ir.Flat.field_name fl fid in
                O2_osa.Osa.sharing_of osa (Access.Tfield (oid, f))
                |> Option.map (fun sh -> (oid, sh)))
              (List.init (O2_ir.Flat.n_fields fl) Fun.id))
          (List.init (Pag.n_objs a.Solver.pag) Fun.id)
      in
      let n_local = ref 0 in
      let by_oid = Hashtbl.create 64 in
      List.iter (fun (oid, sh) -> Hashtbl.add by_oid oid sh) locs;
      Array.iter
        (fun (sp : Solver.spawn) ->
          let origin = Solver.origin_of_spawn a sp in
          let accessors (sh : O2_osa.Osa.sharing) =
            sh.sh_readers @ sh.sh_writers
          in
          let touched =
            List.filter_map
              (fun (oid, sh) ->
                if List.mem origin (accessors sh) then Some oid else None)
              locs
            |> List.sort_uniq compare
          in
          let expected =
            List.filter
              (fun oid ->
                not
                  (List.exists
                     (fun (sh : O2_osa.Osa.sharing) ->
                       sh.sh_self_par
                       || List.exists (fun og -> og <> origin) (accessors sh))
                     (Hashtbl.find_all by_oid oid)))
              touched
          in
          n_local := !n_local + List.length expected;
          Alcotest.(check (list int))
            (Printf.sprintf "%s/%s spawn %d" name (Context.policy_name policy)
               sp.sp_id)
            expected
            (O2_osa.Osa.origin_local_objects osa sp.sp_id))
        a.Solver.spawns;
      (* 0-ctx merges the per-origin objects these specs allocate *)
      if policy <> Context.Insensitive then
        check_bool (name ^ ": some object is origin-local") true (!n_local > 0))
    [
      ("zookeeper", Context.Korigin 1);
      ("zookeeper", Context.Insensitive);
      ("hbase", Context.Korigin 1);
      ("hbase", Context.Insensitive);
    ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pp_output () =
  let a, osa = run_osa (shared_and_local ()) in
  let s = Format.asprintf "%a" (O2_osa.Osa.pp a) osa in
  check_bool "mentions the shared class" true (contains s "Data")

let () =
  Alcotest.run "osa"
    [
      ( "sharing",
        [
          Alcotest.test_case "shared detected" `Quick test_shared_detected;
          Alcotest.test_case "local not shared" `Quick test_local_not_shared;
          Alcotest.test_case "0-ctx over-shares" `Quick
            test_local_shared_under_0ctx;
          Alcotest.test_case "readers vs writers" `Quick
            test_readers_vs_writers;
          Alcotest.test_case "read-only not shared" `Quick
            test_read_only_not_shared;
          Alcotest.test_case "statics per-origin" `Quick
            test_static_single_origin;
          Alcotest.test_case "arrays" `Quick test_array_sharing;
          Alcotest.test_case "figure2 counts" `Quick test_counts_figure2;
          Alcotest.test_case "self-parallel writer shares" `Quick
            test_self_parallel_writer;
          Alcotest.test_case "origin-local report" `Quick
            test_origin_local_report;
          Alcotest.test_case "origin-local oracle" `Quick
            test_origin_local_oracle;
          Alcotest.test_case "pp output" `Quick test_pp_output;
        ] );
    ]
