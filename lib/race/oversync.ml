open O2_ir
open O2_pta

type finding = {
  ov_site : int;
  ov_pos : Types.pos;
  ov_origin : int;
  ov_accesses : int;
}

type report = { findings : finding list }

let n_findings r = List.length r.findings

(* a lock region as the walk enters it: its guarded accesses, nested
   regions' included, and whether all of them are origin-local with no
   call in between *)
type region = {
  r_site : int;
  r_origin : int;
  mutable r_accesses : int;
  mutable r_local : bool;
}

let run a osa =
  (* every region entered, most recent first: reversed, the walk's
     pre-order, so an outer region precedes the regions nested in it *)
  let regions = ref [] in
  ignore
    (Walk.iter_origins a (fun sp ->
         let open_regions = ref [] in
         {
           Walk.ignore_all with
           access =
             (fun _ tid _ ->
               List.iter
                 (fun r ->
                   r.r_accesses <- r.r_accesses + 1;
                   if O2_osa.Osa.is_shared_tid osa tid then r.r_local <- false)
                 !open_regions);
           (* conservatively treat regions with calls as useful: a callee
              may be shared with unlocked paths, where the lock could still
              matter — so callee accesses never decide a verdict *)
           call =
             (fun _ -> List.iter (fun r -> r.r_local <- false) !open_regions);
           sync =
             (fun sid _ body ->
               let r =
                 {
                   r_site = sid;
                   r_origin = sp.Solver.sp_id;
                   r_accesses = 0;
                   r_local = true;
                 }
               in
               regions := r :: !regions;
               let outer = !open_regions in
               open_regions := r :: outer;
               body ();
               open_regions := outer);
         }));
  (* dedup by site (several origins may run the same region); regions with
     no accesses at all are usually fences in disguise *)
  let seen = Hashtbl.create 8 in
  let fl = a.Solver.flat in
  {
    findings =
      List.rev !regions
      |> List.filter_map (fun r ->
             if r.r_accesses > 0 && r.r_local && not (Hashtbl.mem seen r.r_site)
             then begin
               Hashtbl.add seen r.r_site ();
               Some
                 {
                   ov_site = r.r_site;
                   ov_pos = Flat.pos_of_sid fl r.r_site;
                   ov_origin = r.r_origin;
                   ov_accesses = r.r_accesses;
                 }
             end
             else None);
  }

let pp_finding ppf f =
  Format.fprintf ppf
    "over-synchronization at %a: the lock guards %d access(es), all on \
     origin-local data"
    Types.pp_pos f.ov_pos f.ov_accesses
