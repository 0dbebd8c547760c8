open O2_ir

type target =
  | Tfield of int * Types.fname
  | Tstatic of Types.cname * Types.fname

let compare_target = compare

let pp_target a ppf = function
  | Tfield (oid, f) ->
      let o = Pag.obj (a.Solver.pag) oid in
      if f = "*" then
        Format.fprintf ppf "%s@%d[*]" o.Pag.ob_class o.Pag.ob_site
      else Format.fprintf ppf "%s@%d.%s" o.Pag.ob_class o.Pag.ob_site f
  | Tstatic (c, f) -> Format.fprintf ppf "%s::%s" c f

(* tids are the flat-IR encoding of targets (static slots first, then the
   object × field plane); the codec lives here because [target] does. The
   encoding is injective, so int equality on tids is structural equality
   of targets — the flat walkers rely on this for region dedup. *)

let of_tid fl tid =
  if Flat.tid_is_static fl tid then
    Tstatic
      ( Flat.class_name fl (Flat.static_cid fl tid),
        Flat.field_name fl (Flat.static_fid fl tid) )
  else Tfield (Flat.tid_oid fl tid, Flat.field_name fl (Flat.tid_fid fl tid))

let tid_of fl = function
  | Tfield (oid, f) -> (
      match Flat.field_id fl f with
      | Some fid -> Some (Flat.tid_field fl ~oid ~fid)
      | None -> None)
  | Tstatic (c, f) -> (
      match Flat.static_slot fl c f with
      | Some slot -> Some (Flat.tid_static fl slot)
      | None -> None)

let base_targets a m ctx base field =
  O2_util.Bitset.fold
    (fun oid acc -> Tfield (oid, field) :: acc)
    (Solver.pts_var a m ctx base)
    []

let of_stmt a m ctx (s : Ast.stmt) =
  match s.Ast.sk with
  | Ast.FieldWrite (x, f, _) -> Some (base_targets a m ctx x f, true)
  | Ast.FieldRead (_, y, f) -> Some (base_targets a m ctx y f, false)
  | Ast.ArrayWrite (x, _) -> Some (base_targets a m ctx x "*", true)
  | Ast.ArrayRead (_, y) -> Some (base_targets a m ctx y "*", false)
  | Ast.StaticWrite (c, f, _) -> Some ([ Tstatic (c, f) ], true)
  | Ast.StaticRead (_, c, f) -> Some ([ Tstatic (c, f) ], false)
  | _ -> None
