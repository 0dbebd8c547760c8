open O2_ir
open O2_pta

type t = { solver : Solver.result; escaped : (int, unit) Hashtbl.t }

let is_escaped t oid = Hashtbl.mem t.escaped oid

let escaped_objects t =
  Hashtbl.fold (fun oid () acc -> oid :: acc) t.escaped []
  |> List.sort compare

let run a =
  let pag = a.Solver.pag in
  let t = { solver = a; escaped = Hashtbl.create 64 } in
  let frontier = ref [] in
  let mark oid =
    if not (Hashtbl.mem t.escaped oid) then begin
      Hashtbl.add t.escaped oid ();
      frontier := oid :: !frontier
    end
  in
  (* roots: thread/handler objects and everything in static fields *)
  let p = a.Solver.program in
  Pag.iter_nodes
    (fun _ node pts ->
      match node with
      | Pag.NStatic _ -> O2_util.Bitset.iter mark pts
      | _ -> ())
    pag;
  for oid = 0 to Pag.n_objs pag - 1 do
    let o = Pag.obj pag oid in
    match Program.kind_of p o.Pag.ob_class with
    | Program.Kthread _ | Program.Khandler _ -> mark oid
    | Program.Kplain -> ()
  done;
  (* closure: fields of escaped objects escape *)
  let by_base : (int, int list ref) Hashtbl.t = Hashtbl.create 256 in
  Pag.iter_nodes
    (fun id node _ ->
      match node with
      | Pag.NField (oid, _) -> (
          match Hashtbl.find_opt by_base oid with
          | Some l -> l := id :: !l
          | None -> Hashtbl.add by_base oid (ref [ id ]))
      | _ -> ())
    pag;
  let rec close () =
    match !frontier with
    | [] -> ()
    | work ->
        frontier := [];
        List.iter
          (fun oid ->
            match Hashtbl.find_opt by_base oid with
            | Some nodes ->
                List.iter
                  (fun node_id -> O2_util.Bitset.iter mark (Pag.pts pag node_id))
                  !nodes
            | None -> ())
          work;
        close ()
  in
  close ();
  t

let n_escaped_accesses t =
  let a = t.solver in
  let fl = a.Solver.flat in
  let seen = Hashtbl.create 256 in
  ignore
    (Walk.iter_origins a (fun _ ->
         {
           Walk.ignore_all with
           access =
             (fun sid tid is_write ->
               if
                 Flat.tid_is_static fl tid || is_escaped t (Flat.tid_oid fl tid)
               then Hashtbl.replace seen (sid, tid, is_write) ());
         }));
  Hashtbl.length seen
