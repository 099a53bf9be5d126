//! Ports: typed connection points between components.
//!
//! CCA communication is through ports with a uses/provides pattern
//! (paper §2.1). A *provides* port is an object a component exposes; a
//! *uses* port is a declared dependency that the framework later wires to a
//! compatible provides port. Ports carry a SIDL-style *port type* string —
//! the interface name — which the framework checks at connect time, and a
//! Rust handle type (typically `Arc<dyn YourTrait>`) which the user
//! recovers with a checked downcast.

use std::any::Any;
use std::sync::Arc;

use crate::error::{FrameworkError, Result};

/// The SIDL port type of the framework's Go port.
pub const GO_PORT_TYPE: &str = "gov.cca.ports.GoPort";

/// The CCA Go port: "the component equivalent of the `main` function"
/// (paper §4.3). Components providing one can be started by the framework.
pub trait GoPort: Send + Sync {
    /// Runs the component; the return code is reported to the launcher.
    fn go(&self) -> Result<i32>;
}

/// A registered provides port: the SIDL type plus the type-erased handle.
#[derive(Clone)]
pub struct ProvidedPort {
    port_type: String,
    handle: Arc<dyn Any + Send + Sync>,
    rust_type: &'static str,
}

impl ProvidedPort {
    /// Wraps a concrete handle (commonly `Arc<dyn Trait>`; any `Clone +
    /// Send + Sync` value works) under a SIDL port type.
    pub(crate) fn new<T: Clone + Send + Sync + 'static>(port_type: &str, handle: T) -> Self {
        ProvidedPort {
            port_type: port_type.to_string(),
            handle: Arc::new(handle),
            rust_type: std::any::type_name::<T>(),
        }
    }

    /// The SIDL interface name.
    pub(crate) fn port_type(&self) -> &str {
        &self.port_type
    }

    /// Recovers the handle as the Rust type it was registered with.
    pub(crate) fn downcast<T: Clone + 'static>(&self, port_name: &str) -> Result<T> {
        self.handle.downcast_ref::<T>().cloned().ok_or(FrameworkError::PortDowncast {
            port: port_name.to_string(),
            requested: std::any::type_name::<T>(),
        })
    }
}

impl std::fmt::Debug for ProvidedPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvidedPort")
            .field("port_type", &self.port_type)
            .field("rust_type", &self.rust_type)
            .finish()
    }
}

/// A declared uses port: name resolution happens at connect time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsesPort {
    /// The SIDL interface name the user expects.
    pub port_type: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    trait Greeter: Send + Sync {
        fn greet(&self) -> String;
    }

    struct Hello;
    impl Greeter for Hello {
        fn greet(&self) -> String {
            "hello".into()
        }
    }

    #[test]
    fn roundtrip_trait_object_handle() {
        let handle: Arc<dyn Greeter> = Arc::new(Hello);
        let port = ProvidedPort::new("test.Greeter", handle);
        assert_eq!(port.port_type(), "test.Greeter");
        let back: Arc<dyn Greeter> = port.downcast("greeter").unwrap();
        assert_eq!(back.greet(), "hello");
    }

    #[test]
    fn wrong_type_downcast_fails() {
        let port = ProvidedPort::new("test.Num", 42u32);
        let r: Result<String> = port.downcast("num");
        assert!(matches!(r, Err(FrameworkError::PortDowncast { .. })));
        let ok: u32 = port.downcast("num").unwrap();
        assert_eq!(ok, 42);
    }

    #[test]
    fn go_port_as_provided_port() {
        struct Runner;
        impl GoPort for Runner {
            fn go(&self) -> Result<i32> {
                Ok(7)
            }
        }
        let handle: Arc<dyn GoPort> = Arc::new(Runner);
        let port = ProvidedPort::new(GO_PORT_TYPE, handle);
        let go: Arc<dyn GoPort> = port.downcast("go").unwrap();
        assert_eq!(go.go().unwrap(), 7);
    }
}
