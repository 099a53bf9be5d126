//! Framework error types.

use std::fmt;

use mxn_runtime::RuntimeError;

/// Errors raised by framework operations (component wiring and port use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameworkError {
    /// Named component is not registered.
    ComponentNotFound {
        /// The component instance name looked up.
        component: String,
    },
    /// A port name was not found on a component.
    PortNotFound {
        /// Component owning (or expected to own) the port.
        component: String,
        /// The missing port name.
        port: String,
    },
    /// Uses/provides SIDL port types differ.
    PortTypeMismatch {
        /// The uses side's declared port type.
        uses_type: String,
        /// The provides side's registered port type.
        provides_type: String,
    },
    /// A uses port was fetched before being connected.
    NotConnected {
        /// Component whose uses port is dangling.
        component: String,
        /// The unconnected uses port name.
        port: String,
    },
    /// A uses port was connected twice.
    AlreadyConnected {
        /// Component whose uses port is already wired.
        component: String,
        /// The doubly-connected port name.
        port: String,
    },
    /// The Rust type requested from a port handle does not match the
    /// registered implementation.
    PortDowncast {
        /// The port whose handle failed to downcast.
        port: String,
        /// The requested Rust type.
        requested: &'static str,
    },
    /// An underlying messaging failure.
    Runtime(RuntimeError),
}

impl fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameworkError::ComponentNotFound { component } => {
                write!(f, "component `{component}` not found")
            }
            FrameworkError::PortNotFound { component, port } => {
                write!(f, "port `{port}` not found on component `{component}`")
            }
            FrameworkError::PortTypeMismatch { uses_type, provides_type } => write!(
                f,
                "port type mismatch: uses side wants `{uses_type}`, provides side offers \
                 `{provides_type}`"
            ),
            FrameworkError::NotConnected { component, port } => {
                write!(f, "uses port `{port}` of `{component}` is not connected")
            }
            FrameworkError::AlreadyConnected { component, port } => {
                write!(f, "uses port `{port}` of `{component}` is already connected")
            }
            FrameworkError::PortDowncast { port, requested } => {
                write!(f, "port `{port}` does not hold a `{requested}`")
            }
            FrameworkError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for FrameworkError {}

impl From<RuntimeError> for FrameworkError {
    fn from(e: RuntimeError) -> Self {
        FrameworkError::Runtime(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, FrameworkError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_parties() {
        let e = FrameworkError::PortTypeMismatch {
            uses_type: "solvers.Linear".into(),
            provides_type: "mesh.Refine".into(),
        };
        let s = e.to_string();
        assert!(s.contains("solvers.Linear") && s.contains("mesh.Refine"));
    }

    #[test]
    fn runtime_errors_convert() {
        let e: FrameworkError = RuntimeError::Aborted.into();
        assert_eq!(e, FrameworkError::Runtime(RuntimeError::Aborted));
    }
}
