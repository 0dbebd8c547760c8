(** Hash tables keyed by plain ints.

    The analyses key their hottest tables on packed ints — a copy edge as
    [src lsl 31 lor dst], a field node as [oid lsl 20 lor fid], an OSA
    access as a mixed-radix (location, origin, kind) code — so one probe
    costs a multiply and a shift, with no tuple allocation and no
    structural hash. The hash spreads every key bit into the low bits that
    pick the bucket: a packed key whose low field takes few values (one
    field id, one destination) still spreads over the whole table. *)

include Hashtbl.S with type key = int
