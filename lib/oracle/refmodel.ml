type page_class = P_free | P_os | P_tenant of int

let class_to_string = function
  | P_free -> "free"
  | P_os -> "nic-os"
  | P_tenant s -> Printf.sprintf "tenant slot %d" s

type who = W_os | W_nf of int

(* The whole per-mode policy, flat. Compare Machine.check_phys: same
   decisions, none of the machinery. *)
let allows ~mode ~who ~owner ~secure ~via_tlb =
  match (mode, who) with
  | (Nicsim.Machine.Liquidio_se_s | Nicsim.Machine.Agilio), _ -> true
  | Nicsim.Machine.Liquidio_se_um _, W_os -> true
  | Nicsim.Machine.Liquidio_se_um { nf_xkphys }, W_nf _ -> via_tlb || nf_xkphys
  | Nicsim.Machine.Bluefield, W_os -> true
  | Nicsim.Machine.Bluefield, W_nf _ -> via_tlb || not secure
  | Nicsim.Machine.Snic, W_os -> ( match owner with P_tenant _ -> false | P_free | P_os -> true)
  | Nicsim.Machine.Snic, W_nf s -> ( match owner with P_tenant o -> o = s | P_free | P_os -> false)

type cls =
  | Cross_tenant_read
  | Cross_tenant_write
  | Os_read_nf
  | Accel_hijack
  | Scrub_residue
  | Stale_translation
  | Model_mismatch

let cls_to_string = function
  | Cross_tenant_read -> "cross-tenant-read"
  | Cross_tenant_write -> "cross-tenant-write"
  | Os_read_nf -> "os-read-nf"
  | Accel_hijack -> "accel-hijack"
  | Scrub_residue -> "scrub-residue"
  | Stale_translation -> "stale-translation"
  | Model_mismatch -> "model-mismatch"

let all_classes =
  [ Cross_tenant_read; Cross_tenant_write; Os_read_nf; Accel_hijack; Scrub_residue; Stale_translation; Model_mismatch ]

let ideal_breach ~who ~owner ~write =
  match (who, owner) with
  | W_nf s, P_tenant o when o <> s -> Some (if write then Cross_tenant_write else Cross_tenant_read)
  | W_os, P_tenant _ -> Some (if write then Cross_tenant_write else Os_read_nf)
  | _ -> None

type violation = { step : int; op : Op.t; cls : cls; detail : string }

let key v = cls_to_string v.cls ^ "@" ^ Op.slots_of v.op

let to_string v = Printf.sprintf "step %d [%s] %s: %s" v.step (cls_to_string v.cls) (Op.to_line v.op) v.detail
