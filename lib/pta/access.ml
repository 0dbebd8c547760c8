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
   of targets — the SHB builder relies on this for region dedup. *)

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
