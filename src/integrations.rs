//! Cross-crate glue that only the umbrella crate can provide.
//!
//! The thesis's MCVA is itself a *delegated* service: view evaluation
//! runs inside the elastic process, next to the MIB. This module wires a
//! [`vdl::Mcva`] into an [`ElasticProcess`] as
//! host services, so delegated DPL agents can define, evaluate and
//! materialize views themselves:
//!
//! | service | effect |
//! |---|---|
//! | `view_define(name, text)` | compile + store a view (replaces existing) |
//! | `view_eval(name)` | evaluate against the live MIB → list of rows |
//! | `view_eval_snapshot(name)` | evaluate against an instantaneous copy |
//! | `view_materialize(name)` | publish the result as v-mib objects → root OID |

use dpl::Value;
use mbd_core::ElasticProcess;
use vdl::{CellValue, Mcva, ViewResult};

fn result_to_value(result: &ViewResult) -> Value {
    let rows = result
        .rows
        .iter()
        .map(|row| {
            Value::list(
                row.iter()
                    .map(|cell| match cell {
                        CellValue::Int(v) => Value::Int(*v),
                        CellValue::Float(v) => Value::Float(*v),
                        CellValue::Str(s) => Value::Str(s.clone()),
                        CellValue::Bool(b) => Value::Bool(*b),
                        CellValue::Nil => Value::Nil,
                    })
                    .collect(),
            )
        })
        .collect();
    Value::list(rows)
}

/// Registers the MCVA's capabilities as host services on `process`.
///
/// The MCVA must share the process's MIB (pass
/// `Mcva::new(process.mib().clone())`), or agents would compute over
/// different data than they read with `mib_get`.
///
/// # Examples
///
/// ```
/// use mbd::core::{ElasticConfig, ElasticProcess};
/// use mbd::vdl::Mcva;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let process = ElasticProcess::new(ElasticConfig::default());
/// snmp::mib2::install_interfaces(process.mib(), 2, 10_000_000)?;
/// let mcva = Mcva::new(process.mib().clone());
/// mbd::integrations::install_view_services(&process, mcva);
///
/// process.delegate(
///     "viewer",
///     r#"fn count_ifs() {
///          view_define("ifs", "view ifs from i = 1.3.6.1.2.1.2.2.1 select count() as n");
///          var rows = view_eval("ifs");
///          return rows[0][0];
///        }"#,
/// )?;
/// let dpi = process.instantiate("viewer")?;
/// assert_eq!(process.invoke(dpi, "count_ifs", &[])?, mbd::dpl::Value::Int(2));
/// # Ok(())
/// # }
/// ```
pub fn install_view_services(process: &ElasticProcess, mcva: Mcva) {
    // View evaluation runs inside agent invocations; per-operation
    // timers make its cost visible separately from `ep.invoke`.
    let telemetry = process.telemetry();
    let m = mcva.clone();
    let timer = telemetry.timer("vdl.define");
    process.register_service("view_define", 2, move |_, args| {
        let _span = timer.start();
        let name = args[0].as_str().ok_or("view_define: name must be str")?;
        let text = args[1].as_str().ok_or("view_define: text must be str")?;
        // Agents may redefine freely: drop any previous definition.
        let _ = m.undefine(name);
        m.define(name, text).map_err(|e| e.to_string())?;
        Ok(Value::Bool(true))
    });

    let m = mcva.clone();
    let timer = telemetry.timer("vdl.eval");
    process.register_service("view_eval", 1, move |_, args| {
        let _span = timer.start();
        let name = args[0].as_str().ok_or("view_eval: name must be str")?;
        let result = m.evaluate(name).map_err(|e| e.to_string())?;
        Ok(result_to_value(&result))
    });

    let m = mcva.clone();
    let timer = telemetry.timer("vdl.eval_snapshot");
    process.register_service("view_eval_snapshot", 1, move |_, args| {
        let _span = timer.start();
        let name = args[0].as_str().ok_or("view_eval_snapshot: name must be str")?;
        let result = m.evaluate_snapshot(name).map_err(|e| e.to_string())?;
        Ok(result_to_value(&result))
    });

    let timer = telemetry.timer("vdl.materialize");
    process.register_service("view_materialize", 1, move |_, args| {
        let _span = timer.start();
        let name = args[0].as_str().ok_or("view_materialize: name must be str")?;
        let root = mcva.materialize(name).map_err(|e| e.to_string())?;
        Ok(Value::Str(root.to_string()))
    });
}
