(* Assert that `o2 analyze --stats --json` output carries the observability
   payload. Timer values vary run to run, so this is a key-presence check
   rather than a golden diff: every counter the --stats table documents must
   appear in the "metrics" object, along with the stage trace spans. *)

let required =
  [
    {|"metrics":{"counters":|};
    (* PAG / solver *)
    {|"pta.pointers":|}; {|"pta.objects":|}; {|"pta.edges":|};
    {|"pta.reached_methods":|}; {|"pta.call_edges":|};
    {|"pta.worklist_iters":|};
    {|"pta.worklist_pushes":|}; {|"pta.pts_adds":|}; {|"pta.pts_facts":|};
    {|"pta.origins":|};
    (* OSA *)
    {|"osa.stmts_scanned":|}; {|"osa.accesses":|}; {|"osa.locations":|};
    {|"osa.shared_locations":|};
    (* SHB *)
    {|"shb.nodes":|}; {|"shb.access_nodes":|}; {|"shb.edges":|};
    {|"shb.locksets":|}; {|"shb.lockset_cache_hits":|};
    {|"shb.lockset_cache_misses":|};
    {|"shb.hb_closure_size":|}; {|"shb.hb_queries":|};
    (* detection *)
    {|"race.pairs_checked":|}; {|"race.hb_pruned":|}; {|"race.lock_pruned":|};
    {|"race.class_pruned":|}; {|"race.candidates":|}; {|"race.races":|};
    (* worklist gauge and the stage trace *)
    {|"pta.worklist_peak":{"current":|};
    {|"path":"analyze/pta"|}; {|"path":"analyze/shb"|};
    {|"path":"analyze/race"|}; {|"path":"analyze/osa"|};
  ]

let contains haystack needle =
  let ln = String.length needle and lh = String.length haystack in
  let rec go i =
    i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1))
  in
  go 0

let () =
  let path = Sys.argv.(1) in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let missing = List.filter (fun k -> not (contains s k)) required in
  match missing with
  | [] -> print_endline "stats json: all metric keys present"
  | ks ->
      Printf.eprintf "missing metric keys in %s:\n" path;
      List.iter (fun k -> Printf.eprintf "  %s\n" k) ks;
      exit 1
