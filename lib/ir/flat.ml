open Types

(* One-pass lowering of a checked {!Program.t} into a dense, integer-indexed
   program form — scan, resolve and allocate in a single sweep, in the spirit
   of Wirth's one-pass Oberon compiler. Past this boundary the analysis
   pipeline sees only int tables and int opcode streams: no strings, no
   polymorphic hash keys.

   Layout invariants (relied on by the PTA describe phase and the origin
   walker, and checked by {!check}):
   - every statement of a method body lowers to exactly one instruction, in
     source (DFS) order; block statements ([Sync]/[If]/[While]) carry the
     int length of their inlined body so walkers can skip or scope them,
     while linear consumers (the describe phase) just keep scanning;
   - instruction operands are dense ids: variable slots are per-method,
     field/class/method-name ids and static-field slots are program-wide;
   - name resolution happens here, once: static-call targets, the
     external-name bit of virtual calls and the loop flag of spawn sites
     are baked into the stream. *)

(* -- opcodes ------------------------------------------------------------- *)
(* operand layout, in stream order after the opcode *)

let op_null = 0 (* sid *)
let op_assign = 1 (* sid, dst slot, src slot *)
let op_new = 2 (* sid, lhs slot, cid, nargs, arg slots... *)
let op_fwrite = 3 (* sid, base slot, fid, src slot *)
let op_fread = 4 (* sid, dst slot, base slot, fid *)
let op_awrite = 5 (* sid, base slot, src slot *)
let op_aread = 6 (* sid, dst slot, base slot *)
let op_swrite = 7 (* sid, static slot, src slot *)
let op_sread = 8 (* sid, dst slot, static slot *)
let op_callv = 9 (* sid, ret slot | -1, recv slot, name id, external bit,
                    nargs, arg slots... *)
let op_calls = 10 (* sid, ret slot | -1, target mid | -1, nargs, args... *)
let op_start = 11 (* sid, recv slot, in-loop bit *)
let op_join = 12 (* sid, recv slot *)
let op_signal = 13 (* sid, recv slot *)
let op_wait = 14 (* sid, recv slot *)
let op_post = 15 (* sid, recv slot, in-loop bit, nargs, arg slots... *)
let op_sync = 16 (* sid, lock slot, body length; body inlined *)
let op_if = 17 (* sid, then length, else length; bodies inlined *)
let op_while = 18 (* sid, body length; body inlined *)
let op_return = 19 (* sid, value slot | -1 *)

(* fixed part of each instruction's length, indexed by opcode; the four
   argument-carrying opcodes add their nargs operand *)
let widths = [| 2; 4; 5; 5; 5; 4; 4; 4; 4; 7; 5; 4; 3; 3; 3; 5; 4; 4; 3; 3 |]

let width code j =
  let op = code.(j) in
  widths.(op)
  +
  if op = op_callv then code.(j + 6)
  else if op = op_new || op = op_calls || op = op_post then code.(j + 4)
  else 0

type meth_info = {
  f_meth : Program.meth;  (* back-pointer for string-world consumers *)
  f_mid : int;
  f_cid : int;
  f_nslots : int;
  f_slot_name : string array;  (* slot -> variable name *)
  f_param_slots : int array;  (* parameter index -> slot *)
  f_code : int array;  (* the opcode stream of the body *)
}

type t = {
  f_program : Program.t;
  f_class_name : string array;  (* cid -> class name *)
  f_class_id : (cname, int) Hashtbl.t;
  f_field_name : string array;  (* fid -> field name ("*" for arrays) *)
  f_field_id : (fname, int) Hashtbl.t;
  f_star : int;  (* fid of the array pseudo-field "*" *)
  f_static_cid : int array;  (* static slot -> declaring class id *)
  f_static_fid : int array;  (* static slot -> field id *)
  f_static_id : (cname * fname, int) Hashtbl.t;
  f_meths : meth_info array;  (* mid -> method *)
  f_meth_id : (cname * mname, int) Hashtbl.t;
  f_name_str : string array;  (* method-name id -> name *)
  f_name_id : (mname, int) Hashtbl.t;
  f_name_defined : bool array;  (* name id -> some body exists in program *)
  f_pos : pos array;  (* sid -> source position *)
  f_in_loop : bool array;  (* sid -> statement sits under a While *)
}

(* -- sizes and id lookups ------------------------------------------------ *)

let n_classes fl = Array.length fl.f_class_name
let n_fields fl = Array.length fl.f_field_name
let n_statics fl = Array.length fl.f_static_cid
let n_meths fl = Array.length fl.f_meths
let program fl = fl.f_program
let class_name fl cid = fl.f_class_name.(cid)
let field_name fl fid = fl.f_field_name.(fid)
let name_str fl nid = fl.f_name_str.(nid)
let meth fl mid = fl.f_meths.(mid)
let mid fl c m = Hashtbl.find_opt fl.f_meth_id (c, m)

let mid_of_meth fl (m : Program.meth) =
  Hashtbl.find fl.f_meth_id (m.Program.m_class, m.Program.m_name)

let field_id fl f = Hashtbl.find_opt fl.f_field_id f
let static_slot fl c f = Hashtbl.find_opt fl.f_static_id (c, f)
let static_cid fl slot = fl.f_static_cid.(slot)
let static_fid fl slot = fl.f_static_fid.(slot)
let pos_of_sid fl sid = fl.f_pos.(sid)

(* -- location ids (tids) ------------------------------------------------- *)

(* A tid names one abstract memory location: static slots first, then the
   dense (object id × field id) plane. The encoding is total and injective
   once the lowering is done — object ids come from the solved PAG, and no
   new field or static appears after [lower]. *)

let tid_field fl ~oid ~fid = n_statics fl + (oid * n_fields fl) + fid
let tid_static _fl slot = slot
let tid_is_static fl tid = tid < n_statics fl

let tid_oid fl tid = (tid - n_statics fl) / n_fields fl
let tid_fid fl tid = (tid - n_statics fl) mod n_fields fl

(* -- lowering ------------------------------------------------------------ *)

module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 64 0; len = 0 }

  let push b v =
    if b.len = Array.length b.a then begin
      let a' = Array.make (2 * Array.length b.a) 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end;
    b.a.(b.len) <- v;
    b.len <- b.len + 1

  (* reserve a patch slot (body lengths are known only after the body) *)
  let reserve b =
    let i = b.len in
    push b 0;
    i

  let patch b i v = b.a.(i) <- v
  let contents b = Array.sub b.a 0 b.len
end

let lower (p : Program.t) =
  (* program-wide interning tables, filled in declaration order first so
     ids are stable under body reordering, then on demand for names that
     appear only in statements *)
  let class_id = Hashtbl.create 64 and classes_rev = ref [] in
  let cid c =
    match Hashtbl.find_opt class_id c with
    | Some i -> i
    | None ->
        let i = Hashtbl.length class_id in
        Hashtbl.add class_id c i;
        classes_rev := c :: !classes_rev;
        i
  in
  let field_id = Hashtbl.create 64 and fields_rev = ref [] in
  let fid f =
    match Hashtbl.find_opt field_id f with
    | Some i -> i
    | None ->
        let i = Hashtbl.length field_id in
        Hashtbl.add field_id f i;
        fields_rev := f :: !fields_rev;
        i
  in
  let static_id = Hashtbl.create 32 and statics_rev = ref [] in
  let static_slot c f =
    match Hashtbl.find_opt static_id (c, f) with
    | Some i -> i
    | None ->
        let i = Hashtbl.length static_id in
        Hashtbl.add static_id (c, f) i;
        statics_rev := (cid c, fid f) :: !statics_rev;
        i
  in
  let name_id = Hashtbl.create 64 and names_rev = ref [] in
  let nid name =
    match Hashtbl.find_opt name_id name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length name_id in
        Hashtbl.add name_id name i;
        names_rev := name :: !names_rev;
        i
  in
  (* pass 1: classes, declared fields/statics, method ids *)
  List.iter
    (fun (c : Program.cls) ->
      ignore (cid c.Program.c_name);
      List.iter (fun f -> ignore (fid f)) c.Program.c_fields;
      List.iter
        (fun f -> ignore (static_slot c.Program.c_name f))
        c.Program.c_sfields)
    (Program.classes p);
  let star = fid "*" in
  let meth_id = Hashtbl.create 256 and meths_rev = ref [] in
  Program.iter_methods
    (fun m ->
      let key = (m.Program.m_class, m.Program.m_name) in
      if not (Hashtbl.mem meth_id key) then begin
        Hashtbl.add meth_id key (Hashtbl.length meth_id);
        meths_rev := m :: !meths_rev
      end)
    p;
  let meth_arr = Array.of_list (List.rev !meths_rev) in
  let defined = Hashtbl.create 256 in
  Array.iter (fun m -> Hashtbl.replace defined m.Program.m_name ()) meth_arr;
  (* pass 2: lower each body *)
  let lower_meth f_mid (m : Program.meth) =
    let slot_tbl = Hashtbl.create 16 and slots_rev = ref [] in
    let slot v =
      match Hashtbl.find_opt slot_tbl v with
      | Some i -> i
      | None ->
          let i = Hashtbl.length slot_tbl in
          Hashtbl.add slot_tbl v i;
          slots_rev := v :: !slots_rev;
          i
    in
    ignore (slot "this");
    let param_slots = Array.of_list (List.map slot m.Program.m_params) in
    List.iter (fun v -> ignore (slot v)) m.Program.m_locals;
    let buf = Ibuf.create () in
    let push = Ibuf.push buf in
    let rec stmt (s : Ast.stmt) =
      let sid = s.Ast.sid in
      match s.Ast.sk with
      | Ast.Null _ ->
          push op_null;
          push sid
      | Ast.Assign (x, y) ->
          push op_assign;
          push sid;
          push (slot x);
          push (slot y)
      | Ast.New (x, c, args) ->
          push op_new;
          push sid;
          push (slot x);
          push (cid c);
          push (List.length args);
          List.iter (fun a -> push (slot a)) args
      | Ast.FieldWrite (x, f, y) ->
          push op_fwrite;
          push sid;
          push (slot x);
          push (fid f);
          push (slot y)
      | Ast.FieldRead (x, y, f) ->
          push op_fread;
          push sid;
          push (slot x);
          push (slot y);
          push (fid f)
      | Ast.ArrayWrite (x, y) ->
          push op_awrite;
          push sid;
          push (slot x);
          push (slot y)
      | Ast.ArrayRead (x, y) ->
          push op_aread;
          push sid;
          push (slot x);
          push (slot y)
      | Ast.StaticWrite (c, f, y) ->
          push op_swrite;
          push sid;
          push (static_slot c f);
          push (slot y)
      | Ast.StaticRead (x, c, f) ->
          push op_sread;
          push sid;
          push (slot x);
          push (static_slot c f)
      | Ast.Call (ret, y, mname, args) ->
          push op_callv;
          push sid;
          push (match ret with Some r -> slot r | None -> -1);
          push (slot y);
          push (nid mname);
          push (if Hashtbl.mem defined mname then 0 else 1);
          push (List.length args);
          List.iter (fun a -> push (slot a)) args
      | Ast.StaticCall (ret, c, mname, args) ->
          let target =
            match Program.static_method p c mname with
            | Some tm ->
                Hashtbl.find meth_id (tm.Program.m_class, tm.Program.m_name)
            | None -> -1
          in
          push op_calls;
          push sid;
          push (match ret with Some r -> slot r | None -> -1);
          push target;
          push (List.length args);
          List.iter (fun a -> push (slot a)) args
      | Ast.Start x ->
          push op_start;
          push sid;
          push (slot x);
          push (if Program.stmt_in_loop p sid then 1 else 0)
      | Ast.Join x ->
          push op_join;
          push sid;
          push (slot x)
      | Ast.Signal x ->
          push op_signal;
          push sid;
          push (slot x)
      | Ast.Wait x ->
          push op_wait;
          push sid;
          push (slot x)
      | Ast.Post (x, args) ->
          push op_post;
          push sid;
          push (slot x);
          push (if Program.stmt_in_loop p sid then 1 else 0);
          push (List.length args);
          List.iter (fun a -> push (slot a)) args
      | Ast.Sync (x, body) ->
          push op_sync;
          push sid;
          push (slot x);
          let len_at = Ibuf.reserve buf in
          let before = buf.Ibuf.len in
          List.iter stmt body;
          Ibuf.patch buf len_at (buf.Ibuf.len - before)
      | Ast.If (b1, b2) ->
          push op_if;
          push sid;
          let len1_at = Ibuf.reserve buf in
          let len2_at = Ibuf.reserve buf in
          let before1 = buf.Ibuf.len in
          List.iter stmt b1;
          Ibuf.patch buf len1_at (buf.Ibuf.len - before1);
          let before2 = buf.Ibuf.len in
          List.iter stmt b2;
          Ibuf.patch buf len2_at (buf.Ibuf.len - before2)
      | Ast.While body ->
          push op_while;
          push sid;
          let len_at = Ibuf.reserve buf in
          let before = buf.Ibuf.len in
          List.iter stmt body;
          Ibuf.patch buf len_at (buf.Ibuf.len - before)
      | Ast.Return v ->
          push op_return;
          push sid;
          push (match v with Some r -> slot r | None -> -1)
    in
    List.iter stmt m.Program.m_body;
    let slot_name = Array.of_list (List.rev !slots_rev) in
    {
      f_meth = m;
      f_mid;
      f_cid = cid m.Program.m_class;
      f_nslots = Array.length slot_name;
      f_slot_name = slot_name;
      f_param_slots = param_slots;
      f_code = Ibuf.contents buf;
    }
  in
  let meths = Array.mapi lower_meth meth_arr in
  let n = Program.n_stmts p in
  {
    f_program = p;
    f_class_name = Array.of_list (List.rev !classes_rev);
    f_class_id = class_id;
    f_field_name = Array.of_list (List.rev !fields_rev);
    f_field_id = field_id;
    f_star = star;
    f_static_cid = Array.of_list (List.rev_map fst !statics_rev);
    f_static_fid = Array.of_list (List.rev_map snd !statics_rev);
    f_static_id = static_id;
    f_meths = meths;
    f_meth_id = meth_id;
    f_name_str = Array.of_list (List.rev !names_rev);
    f_name_id = name_id;
    f_name_defined =
      Array.of_list
        (List.rev_map (fun nm -> Hashtbl.mem defined nm) !names_rev);
    f_pos = Array.init n (fun sid -> (fst (Program.stmt p sid)).Ast.pos);
    f_in_loop = Array.init n (fun sid -> Program.stmt_in_loop p sid);
  }

(* -- structural validation (used by the property tests) ------------------ *)

exception Malformed of string

let fail fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let check fl =
  let nf = n_fields fl
  and ns = n_statics fl
  and nc = n_classes fl
  and nm = n_meths fl in
  let n_sids = Array.length fl.f_pos in
  Array.iter
    (fun mi ->
      let code = mi.f_code in
      let len = Array.length code in
      let sid v = if v < 0 || v >= n_sids then fail "bad sid %d" v in
      let slot v =
        if v < 0 || v >= mi.f_nslots then
          fail "bad slot %d in %s" v mi.f_meth.Program.m_name
      in
      let opt_slot v = if v <> -1 then slot v in
      let rec block i stop =
        if i > stop then fail "instruction overruns its block"
        else if i = stop then ()
        else
          let op = code.(i) in
          let next =
            if op = op_null then (
              sid code.(i + 1);
              i + 2)
            else if op = op_assign || op = op_awrite || op = op_aread then (
              sid code.(i + 1);
              slot code.(i + 2);
              slot code.(i + 3);
              i + 4)
            else if op = op_new then begin
              sid code.(i + 1);
              slot code.(i + 2);
              if code.(i + 3) < 0 || code.(i + 3) >= nc then
                fail "bad cid %d" code.(i + 3);
              let nargs = code.(i + 4) in
              for k = 0 to nargs - 1 do
                slot code.(i + 5 + k)
              done;
              i + 5 + nargs
            end
            else if op = op_fwrite || op = op_fread then begin
              sid code.(i + 1);
              slot code.(i + 2);
              let f = if op = op_fwrite then code.(i + 3) else code.(i + 4) in
              let b = if op = op_fwrite then code.(i + 2) else code.(i + 3) in
              slot b;
              if f < 0 || f >= nf then fail "bad fid %d" f;
              (if op = op_fwrite then slot code.(i + 4));
              i + 5
            end
            else if op = op_swrite || op = op_sread then begin
              sid code.(i + 1);
              let st = if op = op_swrite then code.(i + 2) else code.(i + 3) in
              let v = if op = op_swrite then code.(i + 3) else code.(i + 2) in
              if st < 0 || st >= ns then fail "bad static slot %d" st;
              slot v;
              i + 4
            end
            else if op = op_callv then begin
              sid code.(i + 1);
              opt_slot code.(i + 2);
              slot code.(i + 3);
              if code.(i + 4) < 0 || code.(i + 4) >= Array.length fl.f_name_str
              then fail "bad name id %d" code.(i + 4);
              let nargs = code.(i + 6) in
              for k = 0 to nargs - 1 do
                slot code.(i + 7 + k)
              done;
              i + 7 + nargs
            end
            else if op = op_calls then begin
              sid code.(i + 1);
              opt_slot code.(i + 2);
              if code.(i + 3) < -1 || code.(i + 3) >= nm then
                fail "bad target mid %d" code.(i + 3);
              let nargs = code.(i + 4) in
              for k = 0 to nargs - 1 do
                slot code.(i + 5 + k)
              done;
              i + 5 + nargs
            end
            else if op = op_start then (
              sid code.(i + 1);
              slot code.(i + 2);
              i + 4)
            else if op = op_join || op = op_signal || op = op_wait then (
              sid code.(i + 1);
              slot code.(i + 2);
              i + 3)
            else if op = op_post then begin
              sid code.(i + 1);
              slot code.(i + 2);
              let nargs = code.(i + 4) in
              for k = 0 to nargs - 1 do
                slot code.(i + 5 + k)
              done;
              i + 5 + nargs
            end
            else if op = op_sync then begin
              sid code.(i + 1);
              slot code.(i + 2);
              let blen = code.(i + 3) in
              block (i + 4) (i + 4 + blen);
              i + 4 + blen
            end
            else if op = op_if then begin
              sid code.(i + 1);
              let l1 = code.(i + 2) and l2 = code.(i + 3) in
              block (i + 4) (i + 4 + l1);
              block (i + 4 + l1) (i + 4 + l1 + l2);
              i + 4 + l1 + l2
            end
            else if op = op_while then begin
              sid code.(i + 1);
              let blen = code.(i + 2) in
              block (i + 3) (i + 3 + blen);
              i + 3 + blen
            end
            else if op = op_return then (
              sid code.(i + 1);
              opt_slot code.(i + 2);
              i + 3)
            else fail "unknown opcode %d at %d" op i
          in
          block next stop
      in
      block 0 len)
    fl.f_meths

(* [footprint fl] estimates the lowered form's heap words — the number the
   README quotes for cache-entry and daemon-residency sizing. *)
let footprint fl =
  Array.fold_left
    (fun acc mi -> acc + Array.length mi.f_code + mi.f_nslots)
    (n_statics fl * 2 + Array.length fl.f_pos + n_classes fl + n_fields fl)
    fl.f_meths
